// Dataset serialization round-trip and corruption handling.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "graph/io.h"
#include "tensor/ops.h"

namespace apt {
namespace {

struct TempFile {
  std::string path;
  explicit TempFile(const char* name)
      : path(std::string(::testing::TempDir()) + "/" + name) {}
  ~TempFile() { std::remove(path.c_str()); }
};

Dataset SampleDs() {
  DatasetParams p;
  p.name = "roundtrip";
  p.num_nodes = 500;
  p.num_edges = 2500;
  p.feature_dim = 12;
  p.num_classes = 4;
  p.num_communities = 4;
  return MakeDataset(p);
}

TEST(DatasetIoTest, RoundTripPreservesEverything) {
  const Dataset ds = SampleDs();
  TempFile f("ds_roundtrip.bin");
  SaveDataset(ds, f.path);
  const Dataset loaded = LoadDataset(f.path);
  EXPECT_EQ(loaded.name, ds.name);
  EXPECT_EQ(loaded.graph.num_nodes(), ds.graph.num_nodes());
  EXPECT_EQ(loaded.graph.num_edges(), ds.graph.num_edges());
  EXPECT_TRUE(std::equal(ds.graph.indices().begin(), ds.graph.indices().end(),
                         loaded.graph.indices().begin()));
  EXPECT_EQ(MaxAbsDiff(loaded.features, ds.features), 0.0f);
  EXPECT_EQ(loaded.labels, ds.labels);
  EXPECT_EQ(loaded.num_classes, ds.num_classes);
  EXPECT_EQ(loaded.num_communities, ds.num_communities);
  EXPECT_EQ(loaded.train_nodes, ds.train_nodes);
  EXPECT_EQ(loaded.val_nodes, ds.val_nodes);
  EXPECT_EQ(loaded.test_nodes, ds.test_nodes);
}

TEST(DatasetIoTest, MissingFileThrows) {
  EXPECT_THROW(LoadDataset("/nonexistent/path/x.bin"), Error);
}

TEST(DatasetIoTest, BadMagicThrows) {
  TempFile f("ds_bad_magic.bin");
  std::ofstream out(f.path, std::ios::binary);
  const char junk[64] = "this is not an APT dataset file";
  out.write(junk, sizeof(junk));
  out.close();
  EXPECT_THROW(LoadDataset(f.path), Error);
}

TEST(DatasetIoTest, TruncatedFileThrows) {
  const Dataset ds = SampleDs();
  TempFile full("ds_full.bin");
  SaveDataset(ds, full.path);
  // Copy the first half of the bytes.
  std::ifstream in(full.path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  TempFile cut("ds_cut.bin");
  std::ofstream out(cut.path, std::ios::binary);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
  out.close();
  EXPECT_THROW(LoadDataset(cut.path), Error);
}

/// Saves `ds`, overwrites the 8 bytes at `offset` with `value` (when
/// offset >= 0), and returns whether LoadDataset throws apt::Error.
bool LoadThrows(const Dataset& ds, const char* name, std::int64_t offset = -1,
                std::int64_t value = 0) {
  TempFile f(name);
  SaveDataset(ds, f.path);
  if (offset >= 0) {
    std::fstream io(f.path, std::ios::binary | std::ios::in | std::ios::out);
    io.seekp(offset);
    io.write(reinterpret_cast<const char*>(&value), sizeof(value));
  }
  try {
    LoadDataset(f.path);
  } catch (const Error&) {
    return true;
  }
  return false;
}

TEST(DatasetIoTest, CorruptedNeighborIdsThrow) {
  const Dataset ds = SampleDs();
  // Header: magic, version, name length + name, indptr length + indptr,
  // indices length; the first neighbor id follows.
  const auto first_index = static_cast<std::int64_t>(
      8 + 4 + 8 + ds.name.size() + 8 + ds.graph.indptr().size() * sizeof(EdgeId) + 8);
  EXPECT_FALSE(LoadThrows(ds, "ds_ok.bin"));
  EXPECT_TRUE(LoadThrows(ds, "ds_idx_high.bin", first_index, ds.graph.num_nodes()));
  EXPECT_TRUE(LoadThrows(ds, "ds_idx_neg.bin", first_index, -1));
  const std::int64_t last_index =
      first_index + (ds.graph.num_edges() - 1) * static_cast<std::int64_t>(sizeof(NodeId));
  EXPECT_TRUE(LoadThrows(ds, "ds_idx_last.bin", last_index, 1LL << 40));
}

TEST(DatasetIoTest, CorruptedLabelsThrow) {
  Dataset ds = SampleDs();
  ds.labels[3] = ds.num_classes;
  EXPECT_TRUE(LoadThrows(ds, "ds_label_high.bin"));
  ds.labels[3] = -1;
  EXPECT_TRUE(LoadThrows(ds, "ds_label_neg.bin"));
  ds = SampleDs();
  ds.num_classes = 0;
  EXPECT_TRUE(LoadThrows(ds, "ds_no_classes.bin"));
}

TEST(DatasetIoTest, CorruptedSplitsThrow) {
  const Dataset good = SampleDs();
  for (auto split : {&Dataset::train_nodes, &Dataset::val_nodes, &Dataset::test_nodes}) {
    for (NodeId bad : {NodeId{-1}, good.graph.num_nodes()}) {
      Dataset ds = SampleDs();
      (ds.*split).push_back(bad);
      EXPECT_TRUE(LoadThrows(ds, "ds_split.bin")) << "split node " << bad;
    }
  }
}

}  // namespace
}  // namespace apt
