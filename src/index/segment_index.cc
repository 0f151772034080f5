#include "index/segment_index.h"

#include <algorithm>
#include <cmath>

#include "filter/event_dp.h"
#include "obs/metrics.h"
#include "obs/obs_macros.h"
#include "text/possible_worlds.h"
#include "util/check.h"
#include "util/math_util.h"
#include "util/simd.h"
#include "util/timer.h"

namespace ujoin {

namespace {

using Cursor = QueryWorkspace::Cursor;

// First posting in [pos, end) with id >= `id`: gallop from `pos`, then
// binary-search the last gap, so a cursor advanced through ascending ids
// pays O(log gap) per step.
const Posting* SeekTo(const Posting* pos, const Posting* end, uint32_t id) {
  const size_t n = static_cast<size_t>(end - pos);
  if (n == 0 || pos->id >= id) return pos;
  size_t lo = 0;  // pos[lo].id < id
  size_t step = 1;
  while (lo + step < n && pos[lo + step].id < id) {
    lo += step;
    step *= 2;
  }
  return std::lower_bound(
      pos + lo + 1, pos + std::min(n, lo + step), id,
      [](const Posting& p, uint32_t value) { return p.id < value; });
}

// Hands out the stamp for the next (query, segment).  When the counter
// wraps, every mark's stamp is cleared first, so a stale mark can never
// equal a new stamp.  Counts are reset separately, through the touched
// list, so a wrap in the middle of a query loses nothing.
uint32_t NextStamp(QueryWorkspace* ws) {
  if (++ws->stamp == 0) {
    for (QueryWorkspace::IdMark& mark : ws->marks) mark.stamp = 0;
    ws->stamp = 1;
  }
  return ws->stamp;
}

}  // namespace

LengthBucketIndex::LengthBucketIndex(int length, int k, int q)
    : length_(length), segments_(PartitionForJoin(length, k, q)) {
  lists_.reserve(segments_.size());
  for (const Segment& seg : segments_) {
    lists_.emplace_back(seg.length);
  }
  wildcard_ids_.resize(segments_.size());
}

Status LengthBucketIndex::Insert(uint32_t id, const UncertainString& s,
                                 int64_t max_instances_per_segment) {
  if (s.length() != length_) {
    return Status::InvalidArgument("string length " +
                                   std::to_string(s.length()) +
                                   " does not match bucket length " +
                                   std::to_string(length_));
  }
  if (frozen_) {
    return Status::FailedPrecondition("cannot insert into a frozen index");
  }
  if (!ids_.empty() && ids_.back() >= id) {
    return Status::FailedPrecondition(
        "ids must be inserted in increasing order to keep lists sorted");
  }
  ids_.push_back(id);
  for (size_t x = 0; x < segments_.size(); ++x) {
    const Segment& seg = segments_[x];
    const UncertainString sub = s.Substring(seg.start, seg.length);
    if (sub.WorldCount() > max_instances_per_segment) {
      // Too many instances to enumerate: record a wildcard so queries treat
      // this segment as matched with certainty (conservative, never unsafe).
      wildcard_ids_[x].push_back(id);
      continue;
    }
    ForEachWorld(sub, [&](const std::string& instance, double prob) {
      lists_[x].Add(instance, Posting{id, prob});
    });
  }
  return Status::OK();
}

void LengthBucketIndex::Freeze() {
  for (FlatPostings& list : lists_) list.Freeze();
  frozen_ = true;
}

std::span<const IndexCandidate> LengthBucketIndex::QueryCandidates(
    const FlatProbeSets& probes, int k, double tau, QueryWorkspace* ws,
    IndexQueryStats* stats, uint32_t id_limit) const {
  const int m = num_segments();
  const int required = m - k;
  UJOIN_CHECK(probes.num_segments() == m);

  ws->candidates.clear();
  if (ids_.empty() || ids_.front() >= id_limit) return {};
  if (required <= 0) {
    // Lemma 5 cannot prune and Theorem 2's bound degenerates to 1: every
    // indexed string is a candidate (short strings relative to k).
    for (uint32_t id : ids_) {
      if (id >= id_limit) break;  // ids_ is sorted ascending
      ws->candidates.push_back(IndexCandidate{id, m, 1.0});
      UJOIN_OBS_HIST(ws->obs, obs::Hist::kCandidateAlphaPpm, 1000000);
    }
    if (stats != nullptr) {
      stats->ids_touched += static_cast<int64_t>(ws->candidates.size());
      stats->candidates += static_cast<int64_t>(ws->candidates.size());
    }
    return ws->candidates;
  }

  // Lookups: per segment, a cursor over the id-sorted posting list of each
  // probe substring (weighted by the substring's occurrence probability),
  // in probe order; a list whose first id is past `id_limit` is absent.
  // Count pass: every posting and wildcard id < id_limit is visited once;
  // the id's mark counts it at most once per segment (the stamp dedupes ids
  // listed by several probe substrings of one segment).  Ids whose count
  // reaches m − k become survivors — the only ids Lemma 5 can keep.
  // Per-kernel wall-time counters, accumulated locally and folded once at
  // the end (clock reads only happen with a recorder attached).
  const bool timed = UJOIN_OBS_ENABLED(ws->obs);
  int64_t fingerprint_ns = 0;
  int64_t merge_ns = 0;
  Timer kernel_timer;
  // Posting and wildcard ids never exceed ids_.back(), so the marks cover
  // every id the count pass can visit.
  const size_t id_end =
      std::min<size_t>(id_limit, static_cast<size_t>(ids_.back()) + 1);
  if (ws->marks.size() < id_end) ws->marks.resize(id_end, {0, 0});
  QueryWorkspace::IdMark* const marks = ws->marks.data();
  ws->touched.clear();
  ws->survivors.clear();
  ws->cursors.clear();
  ws->cursor_begin.clear();
  ws->cursor_begin.push_back(0);
  for (int x = 0; x < m; ++x) {
    const uint32_t stamp = NextStamp(ws);
    int64_t distinct = 0;
    const auto count = [&](uint32_t id) {
      UJOIN_DCHECK(id < id_end);
      QueryWorkspace::IdMark& mark = marks[id];
      if (mark.stamp == stamp) return;
      mark.stamp = stamp;
      ++distinct;
      if (mark.count++ == 0) ws->touched.push_back(id);
      if (mark.count == static_cast<uint32_t>(required)) {
        ws->survivors.push_back(id);
      }
    };
    if (probes.is_wildcard(x)) {
      // Probe-set blow-up on the query side: α_x = 1 for every indexed id.
      if (timed) kernel_timer.Reset();
      for (uint32_t id : ids_) {
        if (id >= id_limit) break;  // ids_ is sorted ascending
        count(id);
      }
      if (timed) merge_ns += kernel_timer.ElapsedNanos();
    } else {
      // The probe keys of one segment share the segment's fixed length, so
      // their fingerprints batch into one kernel call
      // (simd::Fingerprint64Batch, interleaved FNV) and their hash slots
      // prefetch ahead of the lookups.  A test-injected fingerprint function
      // (or a malformed probe length, which Find answers with "absent")
      // falls back to the per-key path.
      const std::span<const FlatProbeSets::Entry> entries =
          probes.segment_entries(x);
      const FlatPostings& seg_lists = lists_[static_cast<size_t>(x)];
      const uint32_t seg_key_len =
          static_cast<uint32_t>(seg_lists.key_length());
      bool batched = seg_lists.uses_default_fingerprint() && !entries.empty();
      for (size_t i = 0; batched && i < entries.size(); ++i) {
        batched = entries[i].length == seg_key_len;
      }
      if (batched) {
        if (timed) kernel_timer.Reset();
        ws->probe_ptrs.clear();
        for (const FlatProbeSets::Entry& probe : entries) {
          ws->probe_ptrs.push_back(probes.text(probe).data());
        }
        ws->probe_fps.resize(entries.size());
        simd::Fingerprint64Batch(ws->probe_ptrs.data(), seg_key_len,
                                 entries.size(), ws->probe_fps.data());
        for (const uint64_t fp : ws->probe_fps) seg_lists.PrefetchSlot(fp);
        if (timed) fingerprint_ns += kernel_timer.ElapsedNanos();
      }
      const size_t first_cursor = ws->cursors.size();
      for (size_t i = 0; i < entries.size(); ++i) {
        const FlatProbeSets::Entry& probe = entries[i];
        const std::span<const Posting> list =
            batched ? seg_lists.FindWithFingerprint(ws->probe_fps[i],
                                                    probes.text(probe))
                    : seg_lists.Find(probes.text(probe));
        if (list.empty() || list.front().id >= id_limit) continue;
        ws->cursors.push_back(
            Cursor{list.data(), list.data() + list.size(), probe.prob});
        if (stats != nullptr) ++stats->lists_scanned;
      }
      if (timed) kernel_timer.Reset();
      int64_t postings = 0;
      for (size_t ci = first_cursor; ci < ws->cursors.size(); ++ci) {
        const Cursor& c = ws->cursors[ci];
        // Lists are id-sorted: stop at the first out-of-range id.
        const Posting* p = c.pos;
        for (; p != c.end && p->id < id_limit; ++p) count(p->id);
        postings += p - c.pos;
      }
      for (uint32_t id : wildcard_ids_[static_cast<size_t>(x)]) {
        if (id >= id_limit) break;
        count(id);
      }
      if (timed) merge_ns += kernel_timer.ElapsedNanos();
      if (stats != nullptr) stats->postings_scanned += postings;
    }
    ws->cursor_begin.push_back(static_cast<uint32_t>(ws->cursors.size()));
    UJOIN_OBS_HIST(ws->obs, obs::Hist::kMergedListLength, distinct);
    // Explain sink, deliberately outside the obs gate: the replay narrative
    // needs per-segment merged lengths even under -DUJOIN_OBS=OFF.
    if (ws->explain_merged != nullptr) ws->explain_merged->push_back(distinct);
  }
  for (uint32_t id : ws->touched) marks[id].count = 0;

  // Exact α, in ascending id order: each segment's cursors seek to the id
  // and fold its contributions in cursor order (an index-side wildcard
  // overrides the sum with α = 1), then Lemma 5 counts the segments with
  // α_x > 0 and the event DP bounds Pr(ed <= k) (Theorem 2).
  if (timed) kernel_timer.Reset();
  std::sort(ws->survivors.begin(), ws->survivors.end());
  ws->alphas.resize(static_cast<size_t>(m));
  const std::span<const double> alphas_span(ws->alphas.data(),
                                            static_cast<size_t>(m));
  int64_t survivors_pruned = 0;
  for (const uint32_t id : ws->survivors) {
    int matched = 0;
    for (int x = 0; x < m; ++x) {
      double alpha = 1.0;
      if (!probes.is_wildcard(x)) {
        alpha = 0.0;
        for (uint32_t ci = ws->cursor_begin[static_cast<size_t>(x)];
             ci < ws->cursor_begin[static_cast<size_t>(x) + 1]; ++ci) {
          Cursor& c = ws->cursors[ci];
          c.pos = SeekTo(c.pos, c.end, id);
          if (c.pos != c.end && c.pos->id == id) {
            alpha += c.weight * c.pos->prob;
          }
        }
        const std::vector<uint32_t>& wildcards =
            wildcard_ids_[static_cast<size_t>(x)];
        if (!wildcards.empty() &&
            std::binary_search(wildcards.begin(), wildcards.end(), id)) {
          alpha = 1.0;
        }
        alpha = ClampProb(alpha);
      }
      ws->alphas[static_cast<size_t>(x)] = alpha;
      if (alpha > 0.0) ++matched;
    }
    if (matched < required) {
      ++survivors_pruned;
      continue;
    }
    const double bound =
        ProbAtLeastEvents(alphas_span, required, &ws->dp_scratch);
    if (bound <= tau) {
      if (stats != nullptr) ++stats->probability_pruned;
      continue;
    }
    ws->candidates.push_back(IndexCandidate{id, matched, bound});
    UJOIN_OBS_HIST(ws->obs, obs::Hist::kCandidateAlphaPpm,
                   std::llround(bound * 1e6));
    if (stats != nullptr) ++stats->candidates;
  }
  if (stats != nullptr) {
    const auto touched = static_cast<int64_t>(ws->touched.size());
    stats->ids_touched += touched;
    stats->support_pruned +=
        touched - static_cast<int64_t>(ws->survivors.size()) +
        survivors_pruned;
  }
  if (timed) {
    UJOIN_OBS_COUNTER(ws->obs, obs::Counter::kKernelEventDpNs,
                      kernel_timer.ElapsedNanos());
    UJOIN_OBS_COUNTER(ws->obs, obs::Counter::kKernelFingerprintNs,
                      fingerprint_ns);
    UJOIN_OBS_COUNTER(ws->obs, obs::Counter::kKernelMergeNs, merge_ns);
  }
  return ws->candidates;
}

std::vector<IndexCandidate> LengthBucketIndex::QueryCandidates(
    const std::vector<std::vector<ProbeSubstring>>& probe_sets,
    const std::vector<bool>& wildcard_segments, int k, double tau,
    IndexQueryStats* stats, uint32_t id_limit) const {
  const int m = num_segments();
  UJOIN_CHECK(static_cast<int>(probe_sets.size()) == m);
  UJOIN_CHECK(static_cast<int>(wildcard_segments.size()) == m);
  QueryWorkspace ws;
  ws.probes.Reset(m);
  for (int x = 0; x < m; ++x) {
    if (!wildcard_segments[static_cast<size_t>(x)]) {
      for (const ProbeSubstring& probe : probe_sets[static_cast<size_t>(x)]) {
        ws.probes.Append(probe.text, probe.prob);
      }
    }
    ws.probes.FinishSegment(wildcard_segments[static_cast<size_t>(x)]);
  }
  const std::span<const IndexCandidate> found =
      QueryCandidates(ws.probes, k, tau, &ws, stats, id_limit);
  return std::vector<IndexCandidate>(found.begin(), found.end());
}

size_t LengthBucketIndex::MemoryUsage() const {
  size_t total = ids_.size() * sizeof(uint32_t);
  for (const FlatPostings& list : lists_) total += list.MemoryBytes();
  for (const std::vector<uint32_t>& wildcards : wildcard_ids_) {
    total += wildcards.size() * sizeof(uint32_t);
  }
  return total;
}

int64_t LengthBucketIndex::num_postings() const {
  int64_t total = 0;
  for (const FlatPostings& list : lists_) total += list.num_postings();
  return total;
}

void LengthBucketIndex::Serialize(BinaryWriter* writer) const {
  writer->WriteI32(length_);
  writer->WriteU64(ids_.size());
  for (uint32_t id : ids_) writer->WriteU32(id);
  writer->WriteU64(lists_.size());
  for (size_t x = 0; x < lists_.size(); ++x) {
    writer->WriteU64(lists_[x].num_keys());
    // Keys in ascending order: serialized bytes are a pure function of the
    // indexed content, independent of insertion order and hash layout.
    lists_[x].ForEachSorted(
        [&](std::string_view key, std::span<const Posting> postings) {
          writer->WriteString(key);
          writer->WriteU64(postings.size());
          for (const Posting& posting : postings) {
            writer->WriteU32(posting.id);
            writer->WriteDouble(posting.prob);
          }
        });
    writer->WriteU64(wildcard_ids_[x].size());
    for (uint32_t id : wildcard_ids_[x]) writer->WriteU32(id);
  }
}

Result<LengthBucketIndex> LengthBucketIndex::Deserialize(BinaryReader* reader,
                                                         int k, int q) {
  Result<int32_t> length = reader->ReadI32();
  if (!length.ok()) return length.status();
  if (*length < 1) {
    return Status::InvalidArgument("corrupt index: bucket length " +
                                   std::to_string(*length));
  }
  LengthBucketIndex bucket(*length, k, q);
  Result<uint64_t> num_ids = reader->ReadCount(sizeof(uint32_t));
  if (!num_ids.ok()) return num_ids.status();
  // Queries index per-id scratch by posting id, so every id list must be
  // strictly increasing and name no id past the bucket's largest.
  const Status bad_id =
      Status::InvalidArgument("corrupt index: ids out of order or range");
  const auto follows = [&](const uint32_t* prev, uint32_t id) {
    return (prev == nullptr || *prev < id) && !bucket.ids_.empty() &&
           id <= bucket.ids_.back();
  };
  bucket.ids_.reserve(*num_ids);
  for (uint64_t i = 0; i < *num_ids; ++i) {
    Result<uint32_t> id = reader->ReadU32();
    if (!id.ok()) return id.status();
    if (!bucket.ids_.empty() && bucket.ids_.back() >= *id) return bad_id;
    bucket.ids_.push_back(*id);
  }
  Result<uint64_t> num_segments = reader->ReadU64();
  if (!num_segments.ok()) return num_segments.status();
  if (*num_segments != bucket.lists_.size()) {
    return Status::InvalidArgument(
        "corrupt index: segment count mismatch (expected " +
        std::to_string(bucket.lists_.size()) + ", got " +
        std::to_string(*num_segments) + ")");
  }
  for (size_t x = 0; x < bucket.lists_.size(); ++x) {
    Result<uint64_t> num_keys = reader->ReadU64();
    if (!num_keys.ok()) return num_keys.status();
    for (uint64_t e = 0; e < *num_keys; ++e) {
      Result<std::string> key = reader->ReadString();
      if (!key.ok()) return key.status();
      if (key->size() !=
          static_cast<size_t>(bucket.segments_[x].length)) {
        return Status::InvalidArgument(
            "corrupt index: key length does not match segment length");
      }
      if (!bucket.lists_[x].Find(*key).empty()) {
        return Status::InvalidArgument("corrupt index: duplicate key");
      }
      Result<uint64_t> num_postings = reader->ReadU64();
      if (!num_postings.ok()) return num_postings.status();
      uint32_t prev = 0;
      for (uint64_t p = 0; p < *num_postings; ++p) {
        Result<uint32_t> id = reader->ReadU32();
        if (!id.ok()) return id.status();
        Result<double> prob = reader->ReadDouble();
        if (!prob.ok()) return prob.status();
        if (!follows(p == 0 ? nullptr : &prev, *id)) return bad_id;
        if (!(*prob >= 0.0 && *prob <= 1.0)) {  // NaN fails too
          return Status::InvalidArgument(
              "corrupt index: posting probability outside [0, 1]");
        }
        prev = *id;
        bucket.lists_[x].Add(*key, Posting{*id, *prob});
      }
    }
    Result<uint64_t> num_wildcards = reader->ReadU64();
    if (!num_wildcards.ok()) return num_wildcards.status();
    for (uint64_t w = 0; w < *num_wildcards; ++w) {
      Result<uint32_t> id = reader->ReadU32();
      if (!id.ok()) return id.status();
      const std::vector<uint32_t>& wildcards = bucket.wildcard_ids_[x];
      if (!follows(wildcards.empty() ? nullptr : &wildcards.back(), *id)) {
        return bad_id;
      }
      bucket.wildcard_ids_[x].push_back(*id);
    }
  }
  return bucket;
}

InvertedSegmentIndex::InvertedSegmentIndex(int k, int q,
                                           ProbeSetOptions probe_options)
    : k_(k), q_(q), probe_options_(probe_options) {
  UJOIN_CHECK(k >= 0 && q >= 1);
}

Status InvertedSegmentIndex::Insert(uint32_t id, const UncertainString& s) {
  if (s.empty()) {
    return Status::InvalidArgument("cannot index an empty string");
  }
  if (frozen_) {
    return Status::FailedPrecondition("cannot insert into a frozen index");
  }
  auto it = buckets_.find(s.length());
  if (it == buckets_.end()) {
    it = buckets_.emplace(s.length(), LengthBucketIndex(s.length(), k_, q_))
             .first;
  }
  return it->second.Insert(id, s, probe_options_.max_instances_per_window);
}

void InvertedSegmentIndex::Freeze() {
  for (auto& [length, bucket] : buckets_) bucket.Freeze();
  frozen_ = true;
}

std::span<const IndexCandidate> InvertedSegmentIndex::Query(
    const UncertainString& r, int length, double tau, QueryWorkspace* ws,
    IndexQueryStats* stats, uint32_t id_limit) const {
  auto it = buckets_.find(length);
  if (it == buckets_.end()) return {};
  const LengthBucketIndex& bucket = it->second;
  // A bucket holding only ids past the limit behaves like an absent bucket
  // (the sequential scan would not have created it yet): skip the probe-set
  // construction entirely.
  if (bucket.ids().empty() || bucket.ids().front() >= id_limit) return {};
  const int m = bucket.num_segments();
  ws->probes.Reset(m);
  for (int x = 0; x < m; ++x) {
    // A failed build (instance blow-up) closes the segment as a wildcard;
    // the error itself carries no extra information for the query path.
    (void)BuildProbeSetInto(r, length,
                            bucket.segments()[static_cast<size_t>(x)], k_,
                            probe_options_, &ws->probe_scratch, &ws->probes);
  }
  return bucket.QueryCandidates(ws->probes, k_, tau, ws, stats, id_limit);
}

std::vector<IndexCandidate> InvertedSegmentIndex::Query(
    const UncertainString& r, int length, double tau, IndexQueryStats* stats,
    uint32_t id_limit) const {
  QueryWorkspace ws;
  const std::span<const IndexCandidate> found =
      Query(r, length, tau, &ws, stats, id_limit);
  return std::vector<IndexCandidate>(found.begin(), found.end());
}

const LengthBucketIndex* InvertedSegmentIndex::bucket(int length) const {
  auto it = buckets_.find(length);
  return it == buckets_.end() ? nullptr : &it->second;
}

size_t InvertedSegmentIndex::MemoryUsage() const {
  size_t total = 0;
  for (const auto& [length, bucket] : buckets_) total += bucket.MemoryUsage();
  return total;
}

int64_t InvertedSegmentIndex::num_postings() const {
  int64_t total = 0;
  for (const auto& [length, bucket] : buckets_) total += bucket.num_postings();
  return total;
}

void InvertedSegmentIndex::Serialize(BinaryWriter* writer) const {
  writer->WriteI32(k_);
  writer->WriteI32(q_);
  writer->WriteU64(buckets_.size());
  for (const auto& [length, bucket] : buckets_) {
    bucket.Serialize(writer);
  }
}

Result<InvertedSegmentIndex> InvertedSegmentIndex::Deserialize(
    BinaryReader* reader, ProbeSetOptions probe_options) {
  Result<int32_t> k = reader->ReadI32();
  if (!k.ok()) return k.status();
  Result<int32_t> q = reader->ReadI32();
  if (!q.ok()) return q.status();
  if (*k < 0 || *q < 1) {
    return Status::InvalidArgument("corrupt index: bad k/q header");
  }
  InvertedSegmentIndex index(*k, *q, probe_options);
  Result<uint64_t> num_buckets = reader->ReadU64();
  if (!num_buckets.ok()) return num_buckets.status();
  for (uint64_t b = 0; b < *num_buckets; ++b) {
    Result<LengthBucketIndex> bucket =
        LengthBucketIndex::Deserialize(reader, *k, *q);
    if (!bucket.ok()) return bucket.status();
    const int length = bucket->length();
    if (!index.buckets_.emplace(length, std::move(bucket).value()).second) {
      return Status::InvalidArgument("corrupt index: duplicate bucket length");
    }
  }
  return index;
}

}  // namespace ujoin
