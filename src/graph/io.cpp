#include "graph/io.h"

#include <cstdint>
#include <cstring>
#include <fstream>

#include "core/error.h"

namespace apt {

namespace {

constexpr std::uint64_t kMagic = 0x0a505444'41505431ULL;  // "1TPA" "DTP\n"
constexpr std::uint32_t kVersion = 1;

void WriteBytes(std::ofstream& out, const void* data, std::size_t bytes) {
  out.write(static_cast<const char*>(data), static_cast<std::streamsize>(bytes));
  APT_CHECK(out.good()) << "write failed";
}

void ReadBytes(std::ifstream& in, void* data, std::size_t bytes) {
  in.read(static_cast<char*>(data), static_cast<std::streamsize>(bytes));
  APT_CHECK(in.good()) << "read failed (truncated file?)";
}

template <typename T>
void WriteScalar(std::ofstream& out, T v) {
  WriteBytes(out, &v, sizeof(T));
}

template <typename T>
T ReadScalar(std::ifstream& in) {
  T v;
  ReadBytes(in, &v, sizeof(T));
  return v;
}

template <typename T>
void WriteVector(std::ofstream& out, const std::vector<T>& v) {
  WriteScalar<std::uint64_t>(out, v.size());
  if (!v.empty()) WriteBytes(out, v.data(), v.size() * sizeof(T));
}

template <typename T>
std::vector<T> ReadVector(std::ifstream& in, std::uint64_t max_size) {
  const auto n = ReadScalar<std::uint64_t>(in);
  APT_CHECK_LE(n, max_size) << "implausible array size";
  std::vector<T> v(static_cast<std::size_t>(n));
  if (n > 0) ReadBytes(in, v.data(), v.size() * sizeof(T));
  return v;
}

}  // namespace

void SaveDataset(const Dataset& dataset, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  APT_CHECK(out.is_open()) << "cannot open " << path << " for writing";
  WriteScalar(out, kMagic);
  WriteScalar(out, kVersion);
  WriteScalar<std::uint64_t>(out, dataset.name.size());
  WriteBytes(out, dataset.name.data(), dataset.name.size());
  // Topology.
  WriteVector(out, std::vector<EdgeId>(dataset.graph.indptr().begin(),
                                       dataset.graph.indptr().end()));
  WriteVector(out, std::vector<NodeId>(dataset.graph.indices().begin(),
                                       dataset.graph.indices().end()));
  // Features.
  WriteScalar<std::int64_t>(out, dataset.features.rows());
  WriteScalar<std::int64_t>(out, dataset.features.cols());
  WriteBytes(out, dataset.features.data(),
             static_cast<std::size_t>(dataset.features.numel()) * sizeof(float));
  // Labels and splits.
  WriteScalar<std::int64_t>(out, dataset.num_classes);
  WriteScalar<std::int32_t>(out, dataset.num_communities);
  WriteVector(out, dataset.labels);
  WriteVector(out, dataset.train_nodes);
  WriteVector(out, dataset.val_nodes);
  WriteVector(out, dataset.test_nodes);
  APT_CHECK(out.good()) << "write failed for " << path;
}

Dataset LoadDataset(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  APT_CHECK(in.is_open()) << "cannot open " << path;
  APT_CHECK_EQ(ReadScalar<std::uint64_t>(in), kMagic) << "bad magic in " << path;
  APT_CHECK_EQ(ReadScalar<std::uint32_t>(in), kVersion) << "unsupported version";
  Dataset ds;
  const auto name_len = ReadScalar<std::uint64_t>(in);
  APT_CHECK_LE(name_len, 4096u) << "implausible name length";
  ds.name.resize(static_cast<std::size_t>(name_len));
  ReadBytes(in, ds.name.data(), ds.name.size());

  constexpr std::uint64_t kMax = 1ULL << 40;
  auto indptr = ReadVector<EdgeId>(in, kMax);
  auto indices = ReadVector<NodeId>(in, kMax);
  ds.graph = CsrGraph(std::move(indptr), std::move(indices));

  const auto rows = ReadScalar<std::int64_t>(in);
  const auto cols = ReadScalar<std::int64_t>(in);
  APT_CHECK_EQ(rows, ds.graph.num_nodes()) << "feature/topology mismatch";
  APT_CHECK(cols > 0 && cols < (1 << 20)) << "implausible feature dim";
  ds.features = Tensor(rows, cols);
  ReadBytes(in, ds.features.data(),
            static_cast<std::size_t>(ds.features.numel()) * sizeof(float));

  ds.num_classes = ReadScalar<std::int64_t>(in);
  ds.num_communities = ReadScalar<std::int32_t>(in);
  APT_CHECK_GT(ds.num_classes, 0) << "implausible class count";
  ds.labels = ReadVector<std::int64_t>(in, kMax);
  APT_CHECK_EQ(static_cast<NodeId>(ds.labels.size()), ds.graph.num_nodes());
  for (std::size_t v = 0; v < ds.labels.size(); ++v) {
    APT_CHECK(ds.labels[v] >= 0 && ds.labels[v] < ds.num_classes)
        << "label " << ds.labels[v] << " of node " << v << " outside [0, "
        << ds.num_classes << ")";
  }
  ds.train_nodes = ReadVector<NodeId>(in, kMax);
  ds.val_nodes = ReadVector<NodeId>(in, kMax);
  ds.test_nodes = ReadVector<NodeId>(in, kMax);
  for (const auto* split : {&ds.train_nodes, &ds.val_nodes, &ds.test_nodes}) {
    for (NodeId v : *split) {
      APT_CHECK(v >= 0 && v < ds.graph.num_nodes()) << "split node " << v
                                                     << " out of range";
    }
  }
  return ds;
}

}  // namespace apt
