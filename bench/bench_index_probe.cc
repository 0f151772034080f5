// Micro-benchmark for the frozen posting-list layout (PR 2): measures
// heterogeneous string_view lookups against the std::unordered_map layout
// it replaced, measures end-to-end frozen-index query throughput, and
// verifies — with a global allocation hook — that the steady-state probe
// path performs zero heap allocations.
//
// Usage: bench_index_probe [output.json]
//   Writes machine-readable results to BENCH_probe.json (or the given
//   path) and exits non-zero if the speedup gate (>= 1.5x over the map
//   baseline) or the zero-allocation gate fails.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_util.h"
#include "datagen/datagen.h"
#include "index/flat_postings.h"
#include "index/segment_index.h"
#include "obs/json_writer.h"
#include "obs/report.h"
#include "util/rng.h"
#include "util/timer.h"

// ---------------------------------------------------------------------------
// Allocation hook: counts heap allocations while enabled.
// ---------------------------------------------------------------------------

namespace {
std::atomic<bool> g_count_allocations{false};
std::atomic<size_t> g_allocation_count{0};

void* CountedAlloc(std::size_t size) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* CountedAllocAligned(std::size_t size, std::size_t alignment) {
  if (g_count_allocations.load(std::memory_order_relaxed)) {
    g_allocation_count.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = std::aligned_alloc(alignment, ((size + alignment - 1) / alignment) *
                                              alignment);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAllocAligned(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using ujoin::Alphabet;
using ujoin::Dataset;
using ujoin::FlatPostings;
using ujoin::GenerateDataset;
using ujoin::IndexQueryStats;
using ujoin::InvertedSegmentIndex;
using ujoin::Posting;
using ujoin::QueryWorkspace;
using ujoin::Rng;
using ujoin::Timer;
using ujoin::UncertainString;

constexpr int kKeyLength = 3;  // the paper's default q

// Probe keys live in one pool with a fixed stride so both contestants see
// the identical std::string_view workload.
struct ProbeWorkload {
  std::string pool;
  size_t count = 0;
  std::string_view key(size_t i) const {
    return {pool.data() + i * kKeyLength, kKeyLength};
  }
};

struct FlatRun {
  const FlatPostings* lists;
  const ProbeWorkload* probes;
  int rounds;
};

struct MapRun {
  const std::unordered_map<std::string, std::vector<Posting>>* lists;
  const ProbeWorkload* probes;
  int rounds;
};

// Returns lookups per second; folds a checksum so the loop cannot be
// optimized away.
double RunFlat(const void* arg) {
  const FlatRun& run = *static_cast<const FlatRun*>(arg);
  Timer timer;
  uint64_t checksum = 0;
  for (int round = 0; round < run.rounds; ++round) {
    for (size_t i = 0; i < run.probes->count; ++i) {
      checksum += run.lists->Find(run.probes->key(i)).size();
    }
  }
  const double seconds = timer.ElapsedSeconds();
  if (checksum == UINT64_MAX) std::printf("impossible\n");
  return static_cast<double>(run.rounds) *
         static_cast<double>(run.probes->count) / seconds;
}

double RunMap(const void* arg) {
  const MapRun& run = *static_cast<const MapRun*>(arg);
  Timer timer;
  uint64_t checksum = 0;
  for (int round = 0; round < run.rounds; ++round) {
    for (size_t i = 0; i < run.probes->count; ++i) {
      // The cost the frozen layout removes: keying a map of std::string
      // requires materializing the probe substring on every lookup.
      const auto it = run.lists->find(std::string(run.probes->key(i)));
      if (it != run.lists->end()) checksum += it->second.size();
    }
  }
  const double seconds = timer.ElapsedSeconds();
  if (checksum == UINT64_MAX) std::printf("impossible\n");
  return static_cast<double>(run.rounds) *
         static_cast<double>(run.probes->count) / seconds;
}

}  // namespace

int main(int argc, char** argv) {
  const char* out_path = argc > 1 ? argv[1] : "BENCH_probe.json";

  // ------------------------------------------------------------------
  // Workload: q-grams of a dblp-like deterministic collection, posted
  // under both layouts; probes are a hit-heavy mix with random misses.
  // The size is fixed (not UJOIN_BENCH_SCALE-scaled): the speedup gate
  // compares data structures at a realistic table size — shrinking it
  // until both fit in cache would measure nothing.
  // ------------------------------------------------------------------
  const int collection_size = 4000;
  ujoin::DatasetOptions data_options =
      ujoin::bench::DblpConfig::Data(collection_size);
  data_options.theta = 0.0;  // deterministic: every position one symbol
  const Dataset dataset = GenerateDataset(data_options);

  FlatPostings flat(kKeyLength);
  std::unordered_map<std::string, std::vector<Posting>> map;
  std::string gram(static_cast<size_t>(kKeyLength), ' ');
  int64_t num_postings = 0;
  for (uint32_t id = 0; id < dataset.strings.size(); ++id) {
    const UncertainString& s = dataset.strings[id];
    for (int start = 0; start + kKeyLength <= s.length(); ++start) {
      for (int i = 0; i < kKeyLength; ++i) {
        gram[static_cast<size_t>(i)] = s.AlternativesAt(start + i)[0].symbol;
      }
      const Posting posting{id, 1.0};
      flat.Add(gram, posting);
      map[gram].push_back(posting);
      ++num_postings;
    }
  }
  flat.Freeze();

  ProbeWorkload probes;
  Rng rng(1234);
  const size_t num_probes = 1 << 16;
  probes.pool.reserve(num_probes * kKeyLength);
  for (size_t i = 0; i < num_probes; ++i) {
    if (rng.Bernoulli(0.7)) {
      // Hit: a q-gram of a random collection string.
      const UncertainString& s = dataset.strings[rng.Uniform(
          static_cast<uint64_t>(dataset.strings.size()))];
      const int start = static_cast<int>(
          rng.Uniform(static_cast<uint64_t>(s.length() - kKeyLength + 1)));
      for (int j = 0; j < kKeyLength; ++j) {
        probes.pool.push_back(s.AlternativesAt(start + j)[0].symbol);
      }
    } else {
      // Likely miss: random letters.
      for (int j = 0; j < kKeyLength; ++j) {
        probes.pool.push_back(
            static_cast<char>('a' + rng.Uniform(26)));
      }
    }
  }
  probes.count = num_probes;

  const int rounds = 20;
  const FlatRun flat_run{&flat, &probes, rounds};
  const MapRun map_run{&map, &probes, rounds};
  // Warm-up, then interleaved best-of-7: alternating the contestants per
  // repetition spreads machine noise over both instead of biasing one.
  (void)RunFlat(&flat_run);
  (void)RunMap(&map_run);
  double flat_rate = 0.0;
  double map_rate = 0.0;
  for (int rep = 0; rep < 7; ++rep) {
    flat_rate = std::max(flat_rate, RunFlat(&flat_run));
    map_rate = std::max(map_rate, RunMap(&map_run));
  }
  const double speedup = flat_rate / map_rate;

  std::printf("lookup throughput over %zu probes x %d rounds "
              "(%lld postings, %zu keys):\n",
              probes.count, rounds, static_cast<long long>(num_postings),
              flat.num_keys());
  std::printf("  flat postings:  %12.0f lookups/s\n", flat_rate);
  std::printf("  unordered_map:  %12.0f lookups/s\n", map_rate);
  std::printf("  speedup:        %12.2fx (gate: >= 1.50x)\n", speedup);

  // ------------------------------------------------------------------
  // End-to-end query throughput through a frozen index, and the
  // zero-allocation gate on the steady-state probe path.
  // ------------------------------------------------------------------
  ujoin::DatasetOptions index_options =
      ujoin::bench::DblpConfig::Data(ujoin::bench::Scaled(1500));
  const Dataset uncertain = GenerateDataset(index_options);
  InvertedSegmentIndex index(/*k=*/2, /*q=*/kKeyLength);
  for (uint32_t id = 0; id < uncertain.strings.size(); ++id) {
    if (!index.Insert(id, uncertain.strings[id]).ok()) {
      std::fprintf(stderr, "FAIL: index insert rejected string %u\n", id);
      return 1;
    }
  }
  index.Freeze();

  QueryWorkspace workspace;
  IndexQueryStats stats;
  const size_t num_queries = std::min<size_t>(uncertain.strings.size(), 256);
  // Warm-up pass grows every workspace buffer to steady state.
  size_t warm_candidates = 0;
  for (size_t i = 0; i < num_queries; ++i) {
    const UncertainString& r = uncertain.strings[i];
    warm_candidates +=
        index.Query(r, r.length(), /*tau=*/0.1, &workspace, &stats).size();
  }

  g_allocation_count.store(0, std::memory_order_relaxed);
  g_count_allocations.store(true, std::memory_order_relaxed);
  Timer query_timer;
  size_t counted_candidates = 0;
  for (size_t i = 0; i < num_queries; ++i) {
    const UncertainString& r = uncertain.strings[i];
    counted_candidates +=
        index.Query(r, r.length(), /*tau=*/0.1, &workspace, &stats).size();
  }
  const double query_seconds = query_timer.ElapsedSeconds();
  g_count_allocations.store(false, std::memory_order_relaxed);
  const size_t steady_state_allocations =
      g_allocation_count.load(std::memory_order_relaxed);
  const double queries_per_sec =
      static_cast<double>(num_queries) / query_seconds;

  std::printf("frozen-index queries: %zu queries, %zu candidates, "
              "%.0f queries/s\n",
              num_queries, counted_candidates, queries_per_sec);
  std::printf("steady-state allocations in the probe path: %zu "
              "(gate: 0)\n",
              steady_state_allocations);
  if (counted_candidates != warm_candidates) {
    std::fprintf(stderr, "FAIL: repeated queries changed the result\n");
    return 1;
  }

  // Shared machine-readable envelope (DESIGN.md "Observability"): every
  // BENCH_*.json is a ujoin.run_report whose payload sits in "results".
  ujoin::obs::JsonWriter results;
  results.BeginObject();
  results.Key("collection_size");
  results.Int(collection_size);
  results.Key("num_keys");
  results.UInt(flat.num_keys());
  results.Key("num_postings");
  results.Int(num_postings);
  results.Key("num_probes");
  results.UInt(probes.count);
  results.Key("flat_lookups_per_sec");
  results.Double(flat_rate);
  results.Key("map_lookups_per_sec");
  results.Double(map_rate);
  results.Key("speedup");
  results.Double(speedup);
  results.Key("speedup_gate");
  results.Double(1.5);
  results.Key("frozen_index_queries_per_sec");
  results.Double(queries_per_sec);
  results.Key("steady_state_allocations");
  results.UInt(steady_state_allocations);
  results.EndObject();
  const ujoin::Status write_status = ujoin::obs::WriteRunReport(
      out_path, "bench_index_probe", {{"results", results.TakeString()}});
  if (!write_status.ok()) {
    std::fprintf(stderr, "FAIL: %s\n", write_status.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path);

  bool ok = true;
  if (speedup < 1.5) {
    std::fprintf(stderr,
                 "FAIL: flat-postings speedup %.2fx below the 1.5x gate\n",
                 speedup);
    ok = false;
  }
  if (steady_state_allocations != 0) {
    std::fprintf(stderr,
                 "FAIL: %zu allocations in the steady-state probe path\n",
                 steady_state_allocations);
    ok = false;
  }
  return ok ? 0 : 1;
}
