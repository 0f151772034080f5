#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "index/segment_index.h"
#include "join/search.h"
#include "testing/test_util.h"

namespace ujoin {
namespace {

std::vector<UncertainString> SmallDataset(int size, uint64_t seed) {
  DatasetOptions opt;
  opt.kind = DatasetOptions::Kind::kNames;
  opt.size = size;
  opt.theta = 0.25;
  opt.seed = seed;
  opt.min_length = 4;
  opt.max_length = 10;
  opt.max_uncertain_positions = 4;
  return GenerateDataset(opt).strings;
}

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void PatchU32(std::string* bytes, size_t offset, uint32_t value) {
  std::memcpy(bytes->data() + offset, &value, sizeof(value));
}

uint32_t U32At(const std::string& bytes, size_t offset) {
  uint32_t value;
  std::memcpy(&value, bytes.data() + offset, sizeof(value));
  return value;
}

/// Byte offsets into a saved index section (the layout of
/// InvertedSegmentIndex::Serialize): each bucket's id list and each posting
/// list, as (offset of the first id, number of ids).
struct IndexLayout {
  struct IdList {
    size_t offset;
    uint64_t count;
  };
  std::vector<IdList> bucket_ids;
  std::vector<IdList> posting_lists;  // postings are 12 bytes: id + prob
};

IndexLayout WalkIndex(const std::string& bytes, size_t at) {
  const auto u64 = [&] {
    uint64_t value;
    std::memcpy(&value, bytes.data() + at, sizeof(value));
    at += sizeof(value);
    return value;
  };
  IndexLayout layout;
  at += 2 * sizeof(int32_t);  // k, q
  const uint64_t buckets = u64();
  for (uint64_t b = 0; b < buckets; ++b) {
    at += sizeof(int32_t);  // length
    const uint64_t ids = u64();
    layout.bucket_ids.push_back({at, ids});
    at += ids * sizeof(uint32_t);
    const uint64_t segments = u64();
    for (uint64_t x = 0; x < segments; ++x) {
      const uint64_t keys = u64();
      for (uint64_t key = 0; key < keys; ++key) {
        at += u64();  // key bytes
        const uint64_t postings = u64();
        layout.posting_lists.push_back({at, postings});
        at += postings * (sizeof(uint32_t) + sizeof(double));
      }
      at += u64() * sizeof(uint32_t);  // wildcard ids
    }
  }
  EXPECT_EQ(at, bytes.size()) << "index walk out of step with the format";
  return layout;
}

/// Byte offset of the collection count in a saved searcher: magic,
/// version, k, tau, q, flags, and verify method come first.
constexpr size_t kCollectionCountOffset = 4 + 4 + 4 + 8 + 4 + 1 + 1;

/// Saves a q-gram-indexed searcher over `collection` to `path`; returns the
/// saved bytes and walks their index section into `layout`.
std::string SaveIndexed(const std::vector<UncertainString>& collection,
                        const std::string& path, IndexLayout* layout) {
  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  // The same searcher without a q-gram index ends where the index begins.
  options.use_qgram_filter = false;
  Result<SimilaritySearcher> no_index =
      SimilaritySearcher::Create(collection, Alphabet::Names(), options);
  EXPECT_TRUE(no_index.ok() && no_index->Save(path).ok());
  const size_t index_start = ReadAll(path).size();
  options.use_qgram_filter = true;
  Result<SimilaritySearcher> indexed =
      SimilaritySearcher::Create(collection, Alphabet::Names(), options);
  EXPECT_TRUE(indexed.ok() && indexed->Save(path).ok());
  const std::string saved = ReadAll(path);
  *layout = WalkIndex(saved, index_start);
  return saved;
}

/// Writes `bytes` to `path` and expects Load to reject them as corrupt.
void ExpectRejected(const std::string& path, const std::string& bytes,
                    const std::string& what) {
  WriteAll(path, bytes);
  Result<SimilaritySearcher> loaded =
      SimilaritySearcher::Load(path, Alphabet::Names());
  ASSERT_FALSE(loaded.ok()) << what;
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument) << what;
}

TEST(IndexSerializationTest, RoundTripPreservesQueries) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(60, 301);
  InvertedSegmentIndex original(2, 3);
  for (uint32_t id = 0; id < collection.size(); ++id) {
    ASSERT_TRUE(original.Insert(id, collection[id]).ok());
  }
  BinaryWriter writer;
  original.Serialize(&writer);
  BinaryReader reader(writer.buffer());
  Result<InvertedSegmentIndex> restored =
      InvertedSegmentIndex::Deserialize(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_TRUE(reader.AtEnd());
  EXPECT_EQ(restored->num_postings(), original.num_postings());
  EXPECT_EQ(restored->MemoryUsage(), original.MemoryUsage());
  // Identical candidates for every probe.
  for (uint32_t probe = 0; probe < collection.size(); probe += 7) {
    const UncertainString& r = collection[probe];
    for (int l = std::max(1, r.length() - 2); l <= r.length() + 2; ++l) {
      const auto a = original.Query(r, l, 0.1);
      const auto b = restored->Query(r, l, 0.1);
      ASSERT_EQ(a.size(), b.size());
      for (size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].id, b[i].id);
        EXPECT_NEAR(a[i].upper_bound, b[i].upper_bound, 1e-12);
      }
    }
  }
}

// Serialization determinism: the bytes are a pure function of the indexed
// content.  Serializing, deserializing, and serializing again must produce
// the same buffer even though the deserialized index accumulated its
// postings in sorted key order rather than world-enumeration order.
TEST(IndexSerializationTest, SaveLoadSaveIsByteIdentical) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(60, 307);
  InvertedSegmentIndex original(2, 3);
  for (uint32_t id = 0; id < collection.size(); ++id) {
    ASSERT_TRUE(original.Insert(id, collection[id]).ok());
  }
  BinaryWriter first;
  original.Serialize(&first);

  BinaryReader reader(first.buffer());
  Result<InvertedSegmentIndex> restored =
      InvertedSegmentIndex::Deserialize(&reader);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  BinaryWriter second;
  restored->Serialize(&second);
  ASSERT_EQ(first.buffer().size(), second.buffer().size());
  EXPECT_TRUE(std::equal(first.buffer().begin(), first.buffer().end(),
                         second.buffer().begin()));

  // Freezing rearranges the in-memory arena but must not change the bytes.
  restored->Freeze();
  BinaryWriter frozen;
  restored->Serialize(&frozen);
  ASSERT_EQ(first.buffer().size(), frozen.buffer().size());
  EXPECT_TRUE(std::equal(first.buffer().begin(), first.buffer().end(),
                         frozen.buffer().begin()));
}

// Same property end to end through the searcher's file format.
TEST(SearcherPersistenceTest, SaveLoadSaveFilesAreByteIdentical) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(50, 308);
  Result<SimilaritySearcher> original = SimilaritySearcher::Create(
      collection, alphabet, JoinOptions::Qfct(2, 0.1));
  ASSERT_TRUE(original.ok());
  const std::string path_a = TempPath("ujoin_searcher_bytes_a.bin");
  const std::string path_b = TempPath("ujoin_searcher_bytes_b.bin");
  ASSERT_TRUE(original->Save(path_a).ok());
  Result<SimilaritySearcher> loaded =
      SimilaritySearcher::Load(path_a, alphabet);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(loaded->Save(path_b).ok());

  const auto read_all = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
  };
  const std::string bytes_a = read_all(path_a);
  const std::string bytes_b = read_all(path_b);
  ASSERT_FALSE(bytes_a.empty());
  EXPECT_EQ(bytes_a, bytes_b);
  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
}

TEST(SearcherPersistenceTest, SaveLoadRoundTripIdenticalResults) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(80, 302);
  JoinOptions options = JoinOptions::Qfct(2, 0.1);
  options.always_verify = true;
  Result<SimilaritySearcher> original =
      SimilaritySearcher::Create(collection, alphabet, options);
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("ujoin_searcher.bin");
  ASSERT_TRUE(original->Save(path).ok());

  Result<SimilaritySearcher> loaded =
      SimilaritySearcher::Load(path, alphabet);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->collection().size(), collection.size());
  EXPECT_EQ(loaded->IndexMemoryUsage(), original->IndexMemoryUsage());
  const std::vector<UncertainString> queries = SmallDataset(15, 303);
  for (const UncertainString& query : queries) {
    Result<std::vector<SearchHit>> a = original->Search(query);
    Result<std::vector<SearchHit>> b = loaded->Search(query);
    ASSERT_TRUE(a.ok() && b.ok());
    ASSERT_EQ(a->size(), b->size());
    for (size_t i = 0; i < a->size(); ++i) {
      EXPECT_EQ((*a)[i].id, (*b)[i].id);
      EXPECT_NEAR((*a)[i].probability, (*b)[i].probability, 1e-12);
    }
  }
  std::remove(path.c_str());
}

TEST(SearcherPersistenceTest, CollectionProbabilitiesSurviveExactly) {
  const Alphabet alphabet = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(30, 304);
  Result<SimilaritySearcher> original = SimilaritySearcher::Create(
      collection, alphabet, JoinOptions::Qfct(2, 0.1));
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("ujoin_searcher_exact.bin");
  ASSERT_TRUE(original->Save(path).ok());
  Result<SimilaritySearcher> loaded =
      SimilaritySearcher::Load(path, alphabet);
  ASSERT_TRUE(loaded.ok());
  for (size_t i = 0; i < collection.size(); ++i) {
    const UncertainString& a = collection[i];
    const UncertainString& b = loaded->collection()[i];
    ASSERT_EQ(a.length(), b.length());
    for (int pos = 0; pos < a.length(); ++pos) {
      auto aa = a.AlternativesAt(pos);
      auto bb = b.AlternativesAt(pos);
      ASSERT_EQ(aa.size(), bb.size());
      for (size_t alt = 0; alt < aa.size(); ++alt) {
        EXPECT_EQ(aa[alt].symbol, bb[alt].symbol);
        // Binary format: bit-exact probabilities (unlike the text format).
        EXPECT_EQ(aa[alt].prob, bb[alt].prob);
      }
    }
  }
  std::remove(path.c_str());
}

TEST(SearcherPersistenceTest, RejectsGarbageAndTruncation) {
  const Alphabet alphabet = Alphabet::Names();
  const std::string path = TempPath("ujoin_garbage.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a searcher file at all";
  }
  EXPECT_FALSE(SimilaritySearcher::Load(path, alphabet).ok());

  // A valid file truncated in the middle must fail cleanly, not crash.
  const std::vector<UncertainString> collection = SmallDataset(20, 305);
  Result<SimilaritySearcher> original = SimilaritySearcher::Create(
      collection, alphabet, JoinOptions::Qfct(2, 0.1));
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(original->Save(path).ok());
  Result<BinaryReader> full = BinaryReader::FromFile(path);
  ASSERT_TRUE(full.ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::string data((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size() / 2));
  }
  Result<SimilaritySearcher> truncated =
      SimilaritySearcher::Load(path, alphabet);
  EXPECT_FALSE(truncated.ok());
  std::remove(path.c_str());
}

// Queries index per-id scratch by posting id, so Load must reject an index
// whose ids are out of order or out of range instead of trusting them.
TEST(SearcherPersistenceTest, RejectsCorruptIndexIds) {
  const std::vector<UncertainString> collection = SmallDataset(60, 309);
  const std::string path = TempPath("ujoin_searcher_ids.bin");
  IndexLayout layout;
  const std::string saved = SaveIndexed(collection, path, &layout);
  ASSERT_TRUE(SimilaritySearcher::Load(path, Alphabet::Names()).ok());
  ASSERT_FALSE(layout.posting_lists.empty());

  // A bit-flipped posting id far past every indexed id.
  std::string huge_id = saved;
  PatchU32(&huge_id, layout.posting_lists.front().offset, 0xFFFFFFF0u);
  ExpectRejected(path, huge_id, "posting id 0xFFFFFFF0");

  // A posting list whose first two ids are swapped.
  const auto pair = std::find_if(
      layout.posting_lists.begin(), layout.posting_lists.end(),
      [](const IndexLayout::IdList& list) { return list.count >= 2; });
  ASSERT_NE(pair, layout.posting_lists.end());
  std::string swapped = saved;
  const size_t second = pair->offset + sizeof(uint32_t) + sizeof(double);
  PatchU32(&swapped, pair->offset, U32At(saved, second));
  PatchU32(&swapped, second, U32At(saved, pair->offset));
  ExpectRejected(path, swapped, "posting list out of order");

  // A bucket whose largest id (still in order) is past the collection.
  const IndexLayout::IdList& ids = layout.bucket_ids.front();
  ASSERT_GT(ids.count, 0u);
  std::string past_end = saved;
  PatchU32(&past_end, ids.offset + (ids.count - 1) * sizeof(uint32_t),
           static_cast<uint32_t>(collection.size()) + 5);
  ExpectRejected(path, past_end, "indexed id past the collection");
  std::remove(path.c_str());
}

// A flipped probability is rejected instead of trusted: a NaN upper
// bound would survive every `bound <= tau` pruning test.
TEST(SearcherPersistenceTest, RejectsCorruptProbabilities) {
  const std::string path = TempPath("ujoin_searcher_probs.bin");
  IndexLayout layout;
  const std::string saved = SaveIndexed(SmallDataset(60, 310), path, &layout);
  ASSERT_FALSE(layout.posting_lists.empty());
  const auto patched = [&](size_t offset, double value) {
    std::string bytes = saved;
    std::memcpy(bytes.data() + offset, &value, sizeof(value));
    return bytes;
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const size_t posting_prob =
      layout.posting_lists.front().offset + sizeof(uint32_t);
  ExpectRejected(path, patched(posting_prob, nan), "posting probability NaN");
  ExpectRejected(path, patched(posting_prob, 1.5), "posting probability 1.5");
  ExpectRejected(path, patched(posting_prob, -0.25),
                 "posting probability -0.25");
  // The first string's first probability follows the count and the
  // string's length, alternative count, and symbol.
  ExpectRejected(path, patched(kCollectionCountOffset + 8 + 4 + 4 + 1, nan),
                 "collection probability NaN");
  std::remove(path.c_str());
}

// A flipped high bit in a persisted count must fail the load, not drive a
// reserve() of 2^56 elements into std::bad_alloc.
std::string FlipBit56(std::string bytes, size_t u64_offset) {
  bytes[u64_offset + 7] = static_cast<char>(bytes[u64_offset + 7] ^ 1);
  return bytes;
}

TEST(SearcherPersistenceTest, RejectsHugeCollectionCount) {
  const std::string path = TempPath("ujoin_searcher_count.bin");
  IndexLayout layout;
  const std::string saved = SaveIndexed(SmallDataset(60, 311), path, &layout);
  ExpectRejected(path, FlipBit56(saved, kCollectionCountOffset),
                 "collection count");
  std::remove(path.c_str());
}

TEST(SearcherPersistenceTest, RejectsHugeBucketIdCount) {
  const std::string path = TempPath("ujoin_searcher_id_count.bin");
  IndexLayout layout;
  const std::string saved = SaveIndexed(SmallDataset(60, 311), path, &layout);
  ASSERT_FALSE(layout.bucket_ids.empty());
  ExpectRejected(path,
                 FlipBit56(saved, layout.bucket_ids.front().offset -
                                      sizeof(uint64_t)),
                 "bucket id count");
  std::remove(path.c_str());
}

TEST(SearcherPersistenceTest, RejectsAlphabetMismatch) {
  const Alphabet names = Alphabet::Names();
  const std::vector<UncertainString> collection = SmallDataset(10, 306);
  Result<SimilaritySearcher> original =
      SimilaritySearcher::Create(collection, names, JoinOptions::Qfct(2, 0.1));
  ASSERT_TRUE(original.ok());
  const std::string path = TempPath("ujoin_searcher_alpha.bin");
  ASSERT_TRUE(original->Save(path).ok());
  // DNA alphabet cannot hold lowercase name symbols.
  Result<SimilaritySearcher> loaded =
      SimilaritySearcher::Load(path, Alphabet::Dna());
  EXPECT_FALSE(loaded.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ujoin
