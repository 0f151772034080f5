// The three benchmark workloads.  Each run generates its inputs from the
// seed, renders them as text lines (the program's input format), sets up
// several times, then either measures timed passes of the workload with
// every output checked against an independent reference (untraced run), or
// replays the workload's cascade with spans and checks the replay against
// the program (traced run).
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <memory>
#include <optional>
#include <thread>

#include "common.h"
#include "replay.h"
#include "serve/protocol.h"
#include "serve/search_server.h"
#include "util/rng.h"

namespace perfbench {

using ujoin::Alphabet;
using ujoin::JoinOptions;
using ujoin::Result;
using ujoin::SearchHit;
using ujoin::SimilaritySearcher;
using ujoin::UncertainString;
using Hits = std::vector<SearchHit>;

namespace {

double SecondsSince(int64_t start_ns) {
  return 1e-9 * static_cast<double>(NowNs() - start_ns);
}

// Runs `setup` at least kSetupReps times and until kSetupMinSeconds have
// passed (cheap set-ups get more repetitions, up to 200), returning the
// median wall time.  `teardown` runs untimed between repetitions; the last
// repetition's product is kept by the caller.
template <typename Setup, typename Teardown>
double MedianSetup(const Setup& setup, const Teardown& teardown,
                   int64_t* reps_out) {
  std::vector<double> times;
  const int64_t begin = NowNs();
  while (times.size() < static_cast<size_t>(kSetupReps) ||
         (SecondsSince(begin) < kSetupMinSeconds && times.size() < 200)) {
    if (!times.empty()) teardown();
    const int64_t t0 = NowNs();
    setup();
    times.push_back(SecondsSince(t0));
  }
  Progress("set-up done");
  *reps_out = static_cast<int64_t>(times.size());
  return Median(times);
}

// Wall time and peak resident memory of each timed pass.
struct Passes {
  std::vector<double> walls;
  std::vector<double> peak_rss_mb;
};

// Times passes of `pass` until `seconds` have elapsed, with at least three
// passes.  `pass` returns its own wall time in seconds.  Free heap memory is
// returned to the OS before every pass, so each pass's peak is the live
// state plus what the pass itself holds, not what earlier passes left
// cached in the allocator's per-thread arenas.
template <typename Fn>
Passes TimedPasses(double seconds, const Fn& pass) {
  Passes passes;
  const int64_t begin = NowNs();
  while (passes.walls.size() < 3 || SecondsSince(begin) < seconds) {
    ResetPeakRss();
    passes.walls.push_back(pass());
    passes.peak_rss_mb.push_back(PeakRssMb());
  }
  Progress("timed passes done");
  return passes;
}

// Request latencies of one pass, in milliseconds.  A batch workload (join,
// SearchMany) has one request per pass: its call.
using PassLatencies = std::vector<std::vector<double>>;

PassLatencies OneCallPerPass(const Passes& passes) {
  PassLatencies latencies;
  for (double w : passes.walls) latencies.push_back({1e3 * w});
  return latencies;
}

// p50, p99 and peak memory are taken within each pass and reported as their
// medians over the passes, so one pass slowed by the machine moves them no
// more than it moves run_s.
void AddEndToEnd(Outcome* out, double setup_s, int64_t setup_reps,
                 const Passes& passes, const PassLatencies& latencies_ms) {
  const std::vector<double>& walls = passes.walls;
  std::vector<double> p50;
  std::vector<double> p99;
  int64_t n = 0;
  for (const std::vector<double>& pass : latencies_ms) {
    p50.push_back(Quantile(pass, 0.50));
    p99.push_back(Quantile(pass, 0.99));
    n += static_cast<int64_t>(pass.size());
  }
  out->pass_walls_s = walls;
  out->Add("setup_s", setup_s, "s", setup_reps);
  out->Add("run_s", Median(walls), "s", static_cast<int64_t>(walls.size()));
  out->Add("p50_ms", Median(p50), "ms", n);
  // p99 on serve_mixed is set by scheduling delays behind the rare
  // verification-heavy requests and swings with machine load, so it is
  // reported without a bound.
  out->extra.push_back(Metric{"p99_ms", Median(p99), "ms", n});
  out->Add("peak_rss_mb", Median(passes.peak_rss_mb), "MiB",
           static_cast<int64_t>(walls.size()));
}

// Program-side figures the per-layer report leaves to the workload; zero
// where the workload has no such path.
void AddRequestMetrics(Outcome* out, const std::vector<double>& search_us,
                       double serve_overhead_us, int64_t serve_samples) {
  const int64_t n = static_cast<int64_t>(search_us.size());
  out->Add("search.query_p50_us", Quantile(search_us, 0.5), "us", n);
  out->Add("search.query_p99_us", Quantile(search_us, 0.99), "us", n);
  out->Add("serve.overhead_p50_us", serve_overhead_us, "us", serve_samples);
}

// Inputs of the two search workloads: the indexed collection and the query
// lines, all as text.
struct SearchInputs {
  Alphabet alphabet;
  std::vector<std::string> collection;
  std::vector<std::string> queries;
};

// Half the clean draws come from the indexed collection and half from the
// held-out pool; a clean query is the draw's most likely world.  With
// `uncertain_share` > 0 that share of queries is a held-out string as is.
SearchInputs MakeSearchInputs(uint64_t seed, int num_queries,
                              double uncertain_share) {
  ujoin::Dataset ds =
      ujoin::GenerateDataset(NamesData(kIndexSize + kHeldOutSize, seed));
  SearchInputs in{ds.alphabet, {}, {}};
  std::vector<std::string> lines = ToLines(ds.strings);
  in.collection.assign(lines.begin(), lines.begin() + kIndexSize);
  ujoin::Rng rng(seed * 0x9E3779B97F4A7C15ULL + 17);
  in.queries.reserve(static_cast<size_t>(num_queries));
  for (int q = 0; q < num_queries; ++q) {
    const uint64_t held =
        kIndexSize + rng.Uniform(static_cast<uint64_t>(kHeldOutSize));
    if (uncertain_share > 0 && rng.Bernoulli(uncertain_share)) {
      in.queries.push_back(lines[held]);
      continue;
    }
    const uint64_t pick =
        rng.Bernoulli(0.5) ? rng.Uniform(static_cast<uint64_t>(kIndexSize))
                           : held;
    in.queries.push_back(
        ujoin::CapUncertainPositions(ds.strings[pick], 0).ToString());
  }
  return in;
}

// Per-query Search on kThreads threads of our own: the independent
// reference for SearchMany and for the serve responses.
Result<std::vector<Hits>> ReferenceHits(const SimilaritySearcher& searcher,
                                        const std::vector<UncertainString>& q) {
  std::vector<Hits> hits(q.size());
  std::atomic<size_t> next{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&]() {
      ujoin::QueryWorkspace workspace;
      for (size_t i = next++; i < q.size(); i = next++) {
        Result<Hits> r = searcher.Search(q[i], nullptr, &workspace);
        if (!r.ok()) {
          failed = true;
          return;
        }
        hits[i] = std::move(r).value();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (failed) return ujoin::Status::Internal("reference Search failed");
  return hits;
}

// One SearchMany call over all queries; returns its wall time and fills
// `hits` (empty vectors after an error Result, counted in `errors`).
double SearchManyPass(const SimilaritySearcher& searcher,
                      const std::vector<UncertainString>& queries, int threads,
                      std::vector<Hits>* hits, ujoin::JoinStats* stats,
                      int64_t* errors) {
  const int64_t begin = NowNs();
  Result<std::vector<Hits>> r = searcher.SearchMany(queries, threads, stats);
  const double wall = SecondsSince(begin);
  if (r.ok()) {
    *hits = std::move(r).value();
  } else {
    ++*errors;
    hits->assign(queries.size(), Hits{});
  }
  return wall;
}

// Single Search calls over `queries` on this thread: the untraced
// single-thread program time, per-query latencies, and the hits.
struct SingleSearches {
  std::vector<Hits> hits;
  std::vector<double> us;
  double wall_s = 0;
  int64_t errors = 0;
};

SingleSearches TimeSingleSearches(const SimilaritySearcher& searcher,
                                  const std::vector<UncertainString>& queries) {
  SingleSearches out;
  ujoin::QueryWorkspace workspace;
  const int64_t begin = NowNs();
  for (const UncertainString& q : queries) {
    const int64_t t0 = NowNs();
    Result<Hits> h = searcher.Search(q, nullptr, &workspace);
    out.us.push_back(1e-3 * static_cast<double>(NowNs() - t0));
    if (!h.ok()) ++out.errors;
    out.hits.push_back(h.ok() ? std::move(h).value() : Hits{});
  }
  out.wall_s = SecondsSince(begin);
  return out;
}

// The traced half of a search workload: replays `queries` with spans, checks
// the replay's hits against every list in `program_hits` and its funnel
// counters against `program_stats` (the fidelity gate), and adds the
// per-layer metrics.
void GateSearchReplay(const SimilaritySearcher& searcher,
                      const JoinOptions& options,
                      const std::vector<UncertainString>& queries,
                      const std::vector<const std::vector<Hits>*>& program_hits,
                      const ujoin::JoinStats& program_stats,
                      const ProgramTimes& times, Corruption corrupt,
                      Tracer* tracer, Outcome* out) {
  Result<SearchReplay> replay = ReplaySearch(
      searcher.collection(), searcher.alphabet(), options, queries, tracer);
  out->Check(replay.ok(), "replay returns OK");
  if (!replay.ok()) return;
  if (corrupt == Corruption::kChangeHit && !replay->hits.empty()) {
    replay->hits[0].push_back({0, 1.0, true});
  }
  int64_t mismatched = 0;
  for (size_t i = 0; i < queries.size(); ++i) {
    for (const std::vector<Hits>* hits : program_hits) {
      if (!SameHits(replay->hits[i], (*hits)[i])) {
        ++mismatched;
        break;
      }
    }
  }
  const std::string funnel = FunnelDiff(program_stats, replay->stats);
  out->Check(mismatched == 0,
             "gate: replay hits == Search and SearchMany hits for all " +
                 std::to_string(queries.size()) + " queries (" +
                 std::to_string(mismatched) + " differ)");
  out->Check(funnel.empty(),
             "gate: funnel counters " + (funnel.empty() ? "equal" : funnel));
  AddLayerMetrics(*tracer, replay->stats, replay->similar_walks,
                  static_cast<double>(searcher.IndexMemoryUsage()), times, out);
}

}  // namespace

// ---------------------------------------------------------------------------
// join_names
// ---------------------------------------------------------------------------

Outcome RunJoinNames(const RunArgs& args) {
  Outcome out;
  ujoin::Dataset ds = ujoin::GenerateDataset(NamesData(kJoinSize, args.seed));
  const std::vector<std::string> lines = ToLines(ds.strings);
  const Alphabet& alphabet = ds.alphabet;
  JoinOptions options = JoinConfig();
  options.threads = kThreads;

  std::vector<UncertainString> collection;
  int64_t setup_reps = 0;
  bool parsed = true;
  const double setup_s = MedianSetup(
      [&]() {
        Result<std::vector<UncertainString>> r = ParseLines(lines, alphabet);
        parsed = parsed && r.ok();
        if (r.ok()) collection = std::move(r).value();
      },
      [] {}, &setup_reps);
  out.Check(parsed, "parse " + std::to_string(lines.size()) + " input lines");
  if (!parsed) return out;

  if (args.trace) {
    // Traced parse for text.parse_s (set-up is measured untraced above).
    Tracer tracer;
    Result<std::vector<UncertainString>> traced =
        ParseLines(lines, alphabet, &tracer);
    JoinOptions single = options;
    single.threads = 1;
    int64_t t0 = NowNs();
    Result<ujoin::SelfJoinResult> one =
        ujoin::SimilaritySelfJoin(collection, alphabet, single);
    ProgramTimes times;
    times.single_thread_wall_s = SecondsSince(t0);
    t0 = NowNs();
    Result<ujoin::SelfJoinResult> par =
        ujoin::SimilaritySelfJoin(collection, alphabet, options);
    times.parallel_wall_s = SecondsSince(t0);
    Result<JoinReplay> replay =
        ReplaySelfJoin(collection, alphabet, options, kThreads, &tracer);
    out.Check(traced.ok() && one.ok() && par.ok() && replay.ok(),
              "program and replay return OK");
    if (!(one.ok() && par.ok() && replay.ok())) return out;
    if (args.corrupt == Corruption::kDropPair && !replay->pairs.empty()) {
      replay->pairs.pop_back();
    }
    const bool same1 = SamePairs(one->pairs, replay->pairs);
    const bool same4 = SamePairs(par->pairs, replay->pairs);
    const std::string funnel = FunnelDiff(par->stats, replay->stats);
    out.Check(same1 && same4,
              "gate: replay pairs == SimilaritySelfJoin pairs at 1 and " +
                  std::to_string(kThreads) + " threads (" +
                  std::to_string(par->pairs.size()) + " pairs, bits and flags)");
    out.Check(funnel.empty(), "gate: funnel counters " +
                                  (funnel.empty() ? "equal" : funnel));
    AddLayerMetrics(tracer, replay->stats, replay->similar_walks,
                    static_cast<double>(replay->stats.peak_index_memory), times,
                    &out);
    AddRequestMetrics(&out, {}, 0.0, 0);
    out.notes.push_back(
        "n/a on join_names (reported as 0): index.freeze_s, "
        "search.query_p50_us, search.query_p99_us, serve.overhead_p50_us");
    return out;
  }

  // Independent reference: the replay, once per run, before timing.
  Result<JoinReplay> reference =
      ReplaySelfJoin(collection, alphabet, options, kThreads, nullptr);
  out.Check(reference.ok(), "reference replay returns OK");
  if (!reference.ok()) return out;

  std::vector<Result<ujoin::SelfJoinResult>> results;
  const Passes passes = TimedPasses(args.seconds, [&]() {
    const int64_t t0 = NowNs();
    results.push_back(ujoin::SimilaritySelfJoin(collection, alphabet, options));
    return SecondsSince(t0);
  });
  AddEndToEnd(&out, setup_s, setup_reps, passes, OneCallPerPass(passes));

  for (size_t p = 0; p < results.size(); ++p) {
    const bool ok = results[p].ok();
    if (ok && p == 0 && args.corrupt == Corruption::kDropPair &&
        !results[p]->pairs.empty()) {
      results[p]->pairs.pop_back();
    }
    out.Check(ok && SamePairs(results[p]->pairs, reference->pairs) &&
                  FunnelDiff(results[p]->stats, reference->stats).empty(),
              "join pass " + std::to_string(p + 1) + ": " +
                  std::to_string(ok ? results[p]->pairs.size() : 0) +
                  " pairs and funnel == replay reference");
  }
  out.notes.push_back("join_s median " + std::to_string(Median(passes.walls)) +
                      " s over " + std::to_string(passes.walls.size()) +
                      " joins of " +
                      std::to_string(kJoinSize) + " strings at " +
                      std::to_string(kThreads) + " threads");
  return out;
}

// ---------------------------------------------------------------------------
// search_clean
// ---------------------------------------------------------------------------

Outcome RunSearchClean(const RunArgs& args) {
  Outcome out;
  const SearchInputs in = MakeSearchInputs(args.seed, kSearchQueries, 0.0);
  const JoinOptions options = JoinConfig();

  std::optional<SimilaritySearcher> searcher;
  std::vector<UncertainString> queries;
  int64_t setup_reps = 0;
  bool built = true;
  const double setup_s = MedianSetup(
      [&]() {
        Result<std::vector<UncertainString>> c =
            ParseLines(in.collection, in.alphabet);
        Result<std::vector<UncertainString>> q =
            ParseLines(in.queries, in.alphabet);
        if (!c.ok() || !q.ok()) {
          built = false;
          return;
        }
        searcher.reset();
        Result<SimilaritySearcher> s =
            SimilaritySearcher::Create(std::move(c).value(), in.alphabet,
                                       options);
        built = built && s.ok();
        if (s.ok()) searcher.emplace(std::move(s).value());
        queries = std::move(q).value();
      },
      [] {}, &setup_reps);
  out.Check(built, "parse and SimilaritySearcher::Create over " +
                       std::to_string(kIndexSize) + " strings");
  if (!built) return out;

  if (args.trace) {
    Tracer tracer;
    const bool traced = ParseLines(in.collection, in.alphabet, &tracer).ok() &&
                        ParseLines(in.queries, in.alphabet, &tracer).ok();
    const SingleSearches single = TimeSingleSearches(*searcher, queries);
    std::vector<Hits> many_hits;
    ujoin::JoinStats many_stats;
    int64_t errors = single.errors;
    ProgramTimes times;
    times.single_thread_wall_s = single.wall_s;
    times.parallel_wall_s = SearchManyPass(*searcher, queries, kThreads,
                                           &many_hits, &many_stats, &errors);
    out.Check(traced && errors == 0, "program returns OK");
    GateSearchReplay(*searcher, options, queries, {&single.hits, &many_hits},
                     many_stats, times, args.corrupt, &tracer, &out);
    AddRequestMetrics(&out, single.us, 0.0, 0);
    out.notes.push_back(
        "n/a on search_clean (reported as 0): serve.overhead_p50_us; the "
        "schedule metrics treat the SearchMany call as one wave");
    return out;
  }

  Result<std::vector<Hits>> reference = ReferenceHits(*searcher, queries);
  out.Check(reference.ok(), "reference per-query Search returns OK");
  if (!reference.ok()) return out;

  std::vector<Hits> hits;
  int64_t pass_count = 0;
  int64_t errors = 0;
  int64_t wrong = 0;
  const Passes passes = TimedPasses(args.seconds, [&]() {
    const double wall =
        SearchManyPass(*searcher, queries, kThreads, &hits, nullptr, &errors);
    // Checked between passes, outside the pass's own timing.
    if (args.corrupt == Corruption::kChangeHit && pass_count == 0) {
      hits[0].push_back({0, 1.0, true});
    }
    for (size_t i = 0; i < hits.size(); ++i) {
      if (!SameHits(hits[i], (*reference)[i])) ++wrong;
    }
    ++pass_count;
    return wall;
  });
  AddEndToEnd(&out, setup_s, setup_reps, passes, OneCallPerPass(passes));
  out.Tally(pass_count * static_cast<int64_t>(queries.size()), wrong + errors,
            "SearchMany hits == per-query Search reference for " +
                std::to_string(pass_count) + " passes x " +
                std::to_string(queries.size()) + " queries (" +
                std::to_string(wrong) + " wrong, " + std::to_string(errors) +
                " error Results)");
  out.notes.push_back("search_qps " +
                      std::to_string(static_cast<double>(queries.size()) /
                                     Median(passes.walls)) +
                      " (queries / median SearchMany call wall)");
  return out;
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

namespace {

// One closed-loop client connection over loopback.
class Client {
 public:
  Client() = default;
  ~Client() {
    if (fd_ >= 0) close(fd_);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool Connect(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    const int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{30, 0};  // a request with no answer fails, not hangs
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                   sizeof(addr)) == 0;
  }

  bool Send(const std::string& data) {
    size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n =
          send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return false;
      sent += static_cast<size_t>(n);
    }
    return true;
  }

  // Reads one response line including its '\n'; false on EOF or timeout.
  bool ReadLine(std::string* line) {
    for (;;) {
      const size_t nl = buf_.find('\n', pos_);
      if (nl != std::string::npos) {
        line->assign(buf_, pos_, nl + 1 - pos_);
        pos_ = nl + 1;
        if (pos_ == buf_.size()) {
          buf_.clear();
          pos_ = 0;
        }
        return true;
      }
      char chunk[8192];
      const ssize_t n = recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  int64_t seq = 0;             // requests sent on this connection
  int64_t batch_requests = 0;  // requests since the last separator

 private:
  int fd_ = -1;
  std::string buf_;
  size_t pos_ = 0;
};

struct ServeResponse {
  int64_t seq;
  size_t request;  // index into the request stream
  std::string line;
};

// One closed-loop pass: each client takes the next unsent request of the
// stream, sends it, and waits for its response before taking another, so a
// slow request holds up only its own client.  Returns the wall time from the
// first send to the last reply; per-request latencies go to `lat_ms`
// (indexed like the request stream) and responses to `responses`.
double ServePass(std::vector<std::unique_ptr<Client>>& clients,
                 const std::vector<std::string>& request_lines,
                 std::vector<double>* lat_ms,
                 std::vector<ServeResponse>* responses) {
  const size_t n = request_lines.size();
  lat_ms->assign(n, 0.0);
  std::vector<std::vector<ServeResponse>> per_client(clients.size());
  std::atomic<bool> go{false};
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < clients.size(); ++c) {
    threads.emplace_back([&, c]() {
      Client& client = *clients[c];
      while (!go.load()) std::this_thread::yield();
      std::string line;
      for (size_t r = next++; r < n; r = next++) {
        std::string frame;
        if (client.batch_requests == kServeBatch) {
          frame = "\n";  // batch separator, sent with the next request
          client.batch_requests = 0;
        }
        frame += request_lines[r];
        frame += '\n';
        ++client.seq;
        ++client.batch_requests;
        const int64_t t0 = NowNs();
        const bool ok = client.Send(frame) && client.ReadLine(&line);
        (*lat_ms)[r] = 1e-6 * static_cast<double>(NowNs() - t0);
        per_client[c].push_back(
            ServeResponse{client.seq, r, ok ? line : std::string()});
        if (!ok) return;  // connection lost: the rest go unanswered
      }
    });
  }
  const int64_t begin = NowNs();
  go = true;
  for (std::thread& t : threads) t.join();
  const double wall = SecondsSince(begin);
  responses->clear();
  for (std::vector<ServeResponse>& v : per_client) {
    for (ServeResponse& r : v) responses->push_back(std::move(r));
  }
  return wall;
}

// Stops the server once each of its connection workers holds a connection
// of its own and has answered a request on it (a malformed line, which is
// answered with an error without a search).  SearchServer::Stop sets
// its stop flag and wakes idle workers without holding the mailbox mutex, so
// a worker that has tested its wait condition but not yet blocked misses the
// wake-up and Stop never returns; every worker of a server started moments
// before may be in that window.  A worker serving a connection leaves
// through the stop check of its connection loop instead.
void StopServer(std::unique_ptr<ujoin::serve::SearchServer>* server) {
  if (*server == nullptr) return;
  std::vector<std::unique_ptr<Client>> held;
  std::string response;
  for (int c = 0; c < kServeClients; ++c) {
    held.push_back(std::make_unique<Client>());
    Client& client = *held.back();
    if (!(client.Connect((*server)->port()) &&
          client.Send("{\n") && client.ReadLine(&response))) {
      break;
    }
  }
  server->reset();
}

}  // namespace

Outcome RunServeMixed(const RunArgs& args) {
  Outcome out;
  const SearchInputs in =
      MakeSearchInputs(args.seed, kServeRequests, kServeUncertainShare);
  const JoinOptions options = JoinConfig();
  ujoin::serve::ServeOptions serve_options;
  serve_options.max_connections = kServeClients;

  // Declared before the server so that they are destroyed after it: the
  // server stops while each of its connection workers still serves one of
  // them (see StopServer).  Closed first, they would send every worker back
  // to its idle wait just as Stop signals it.
  std::vector<std::unique_ptr<Client>> clients;
  std::optional<SimilaritySearcher> searcher;
  std::unique_ptr<ujoin::serve::SearchServer> server;
  int64_t setup_reps = 0;
  bool started = true;
  const double setup_s = MedianSetup(
      [&]() {
        Result<std::vector<UncertainString>> c =
            ParseLines(in.collection, in.alphabet);
        if (!c.ok()) {
          started = false;
          return;
        }
        Result<SimilaritySearcher> s = SimilaritySearcher::Create(
            std::move(c).value(), in.alphabet, options);
        if (!s.ok()) {
          started = false;
          return;
        }
        searcher.emplace(std::move(s).value());
        server = std::make_unique<ujoin::serve::SearchServer>(&*searcher,
                                                             serve_options);
        started = started && server->Start().ok();
      },
      [&]() {
        StopServer(&server);
        searcher.reset();
      },
      &setup_reps);
  for (int c = 0; started && c < kServeClients; ++c) {
    clients.push_back(std::make_unique<Client>());
    started = clients.back()->Connect(server->port());
  }
  out.Check(started, "parse, SimilaritySearcher::Create, server Start and " +
                         std::to_string(kServeClients) + " client connections");
  if (!started) return out;

  // In-process reference: the request lines parsed as the server parses them.
  Result<std::vector<UncertainString>> parsed =
      ParseLines(in.queries, in.alphabet);
  if (!parsed.ok()) {
    out.Check(false, "parse request lines");
    return out;
  }
  const std::vector<UncertainString>& queries = parsed.value();

  if (args.trace) {
    Tracer tracer;
    const bool traced = ParseLines(in.collection, in.alphabet, &tracer).ok();
    std::vector<double> serve_ms;
    std::vector<ServeResponse> responses;
    ProgramTimes times;
    times.parallel_wall_s = ServePass(clients, in.queries, &serve_ms, &responses);
    const SingleSearches single = TimeSingleSearches(*searcher, queries);
    times.single_thread_wall_s = single.wall_s;
    std::vector<double> overhead_us;
    for (size_t r = 0; r < queries.size(); ++r) {
      overhead_us.push_back(1e3 * serve_ms[r] - single.us[r]);
    }
    std::vector<Hits> many_hits;
    ujoin::JoinStats many_stats;
    int64_t errors = single.errors;
    SearchManyPass(*searcher, queries, kThreads, &many_hits, &many_stats,
                   &errors);
    out.Check(traced && errors == 0, "program returns OK");
    GateSearchReplay(*searcher, options, queries, {&single.hits, &many_hits},
                     many_stats, times, args.corrupt, &tracer, &out);
    AddRequestMetrics(&out, single.us, Median(overhead_us),
                      static_cast<int64_t>(overhead_us.size()));
    out.notes.push_back(
        "the schedule metrics treat the request stream as one wave");
    return out;
  }

  Result<std::vector<Hits>> reference = ReferenceHits(*searcher, queries);
  out.Check(reference.ok(), "reference per-query Search returns OK");
  if (!reference.ok()) return out;

  PassLatencies latencies_ms;
  std::vector<double> pass_ms;
  std::vector<ServeResponse> responses;
  int64_t pass_count = 0;
  int64_t answered = 0;
  int64_t wrong = 0;
  const Passes passes = TimedPasses(args.seconds, [&]() {
    const double wall = ServePass(clients, in.queries, &pass_ms, &responses);
    if (args.corrupt == Corruption::kChangeResponse && pass_count == 0 &&
        !responses.empty()) {
      responses[0].line.insert(0, " ");
    }
    latencies_ms.emplace_back();
    for (const ServeResponse& r : responses) {
      if (r.line.empty()) continue;
      ++answered;
      latencies_ms.back().push_back(pass_ms[r.request]);
      if (r.line != ujoin::serve::RenderHitsResponse(
                        r.seq, (*reference)[r.request], /*inexact=*/false)) {
        ++wrong;
      }
    }
    ++pass_count;
    return wall;
  });
  AddEndToEnd(&out, setup_s, setup_reps, passes, latencies_ms);
  const int64_t sent = pass_count * static_cast<int64_t>(queries.size());
  out.Tally(sent, wrong + (sent - answered),
            "serve responses byte-identical to RenderHitsResponse of "
            "in-process Search: " +
                std::to_string(answered) + "/" + std::to_string(sent) +
                " answered, " + std::to_string(wrong) + " differ");
  out.notes.push_back(
      "serve_qps " +
      std::to_string(static_cast<double>(queries.size()) /
                     Median(passes.walls)) +
      "; closed loop, " + std::to_string(kServeClients) + " clients, batch " +
      std::to_string(kServeBatch) + " requests, " +
      std::to_string(static_cast<int>(100 * kServeUncertainShare)) +
      "% uncertain queries");
  return out;
}

}  // namespace perfbench
