#include "graph/csr_graph.h"

#include <algorithm>
#include <numeric>

namespace apt {

CsrGraph::CsrGraph(std::vector<EdgeId> indptr, std::vector<NodeId> indices)
    : indptr_(std::move(indptr)), indices_(std::move(indices)) {
  APT_CHECK_GE(indptr_.size(), 1u);
  APT_CHECK_EQ(indptr_.front(), 0);
  APT_CHECK_EQ(indptr_.back(), static_cast<EdgeId>(indices_.size()));
  for (std::size_t i = 1; i < indptr_.size(); ++i) {
    APT_CHECK_GE(indptr_[i], indptr_[i - 1]);
  }
  // Node ids index feature rows and partition arrays, and -1 is the empty
  // key of NodeTable: every neighbor must name a node of this graph.
  const NodeId n = num_nodes();
  const auto bad = std::find_if(indices_.begin(), indices_.end(),
                                [n](NodeId u) { return u < 0 || u >= n; });
  APT_CHECK(bad == indices_.end())
      << "neighbor " << *bad << " at edge " << (bad - indices_.begin())
      << " outside [0, " << n << ")";
}

CsrGraph BuildCsr(NodeId num_nodes, std::span<const NodeId> src,
                  std::span<const NodeId> dst, bool symmetrize) {
  APT_CHECK_EQ(src.size(), dst.size());
  // Materialize (dst, src) pairs: CSR is keyed by destination, and the
  // neighbor list of v holds its in-neighbors.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(src.size() * (symmetrize ? 2 : 1));
  for (std::size_t i = 0; i < src.size(); ++i) {
    APT_CHECK(src[i] >= 0 && src[i] < num_nodes) << "src " << src[i];
    APT_CHECK(dst[i] >= 0 && dst[i] < num_nodes) << "dst " << dst[i];
    pairs.emplace_back(dst[i], src[i]);
    if (symmetrize && src[i] != dst[i]) pairs.emplace_back(src[i], dst[i]);
  }
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());

  std::vector<EdgeId> indptr(static_cast<std::size_t>(num_nodes) + 1, 0);
  std::vector<NodeId> indices;
  indices.reserve(pairs.size());
  for (const auto& [d, s] : pairs) {
    ++indptr[static_cast<std::size_t>(d) + 1];
    indices.push_back(s);
  }
  std::partial_sum(indptr.begin(), indptr.end(), indptr.begin());
  return CsrGraph(std::move(indptr), std::move(indices));
}

}  // namespace apt
