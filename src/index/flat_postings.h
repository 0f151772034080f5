#ifndef UJOIN_INDEX_FLAT_POSTINGS_H_
#define UJOIN_INDEX_FLAT_POSTINGS_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

namespace ujoin {

/// \brief One posting of an inverted list L^x_l(w): an uncertain string id
/// and the probability that its x-th segment equals w.
struct Posting {
  uint32_t id;
  double prob;
};

/// 64-bit fingerprint of a byte string (FNV-1a folded through a splitmix64
/// finalizer so low bits avalanche).  Collisions are tolerated — lookups
/// always confirm with a byte comparison — but must be rare for speed.
uint64_t Fingerprint64(const void* data, size_t len);

/// Injectable fingerprint function (tests force collisions with a constant
/// function to exercise the open-addressing tail comparison).
using FingerprintFn = uint64_t (*)(const void* data, size_t len);

/// \brief One segment's inverted lists in a flat, scan-friendly layout.
///
/// All instances of one segment share a fixed length, so keys live in a
/// single character arena with stride `key_length` and lookup needs no
/// per-key size header: an open-addressing table over 64-bit fingerprints
/// selects a slot, and one `memcmp` of `key_length` bytes confirms it.
/// `Find` is heterogeneous (`string_view` in, spans out) and performs no
/// heap allocation — the map-based layout it replaces copied every probe
/// substring into a `std::string` just to hash it.
///
/// The postings have two states.  While building, each key owns a list that
/// `Add` appends to.  `Freeze()` packs every list into one contiguous arena,
/// grouped by key in ascending key order (a deterministic layout,
/// independent of insertion order and hash seeds), after which the postings
/// are read-only.  Ids are inserted in ascending order (the index drivers
/// guarantee this), so either way a key's list is one id-sorted span.  Both
/// the searcher and the self-join build their index completely, freeze it
/// once and then only probe the arena; lookups before the freeze still work
/// (they see the building lists).
///
/// Thread safety: `Find` and all const accessors are safe to call
/// concurrently as long as no `Add`/`Freeze` runs at the same time.
class FlatPostings {
 public:
  /// `key_length` is the fixed instance length; `fingerprint` defaults to
  /// Fingerprint64 (override only in tests).
  explicit FlatPostings(int key_length, FingerprintFn fingerprint = nullptr);

  /// Appends `posting` to `key`'s list.  |key| must equal key_length();
  /// ids must be non-decreasing per key (the caller inserts strings in
  /// ascending id order).  Must not be called after Freeze().
  void Add(std::string_view key, Posting posting);

  /// Zero-allocation lookup of `key`'s id-sorted postings; empty when the
  /// key is absent.
  std::span<const Posting> Find(std::string_view key) const;

  /// Find with the fingerprint computed up front — the batched probe path
  /// fingerprints a whole segment's keys in one kernel call
  /// (simd::Fingerprint64Batch) and then probes with the results.  `fp`
  /// must equal the instance's fingerprint function applied to `key`.
  std::span<const Posting> FindWithFingerprint(uint64_t fp,
                                               std::string_view key) const;

  /// Hints the load of the hash slot `fp` would probe first, so a batch of
  /// FindWithFingerprint calls overlaps its cache misses.  No-op when empty.
  void PrefetchSlot(uint64_t fp) const;

  /// True when this instance hashes with the default Fingerprint64 — the
  /// precondition for probing it with externally batched fingerprints.
  bool uses_default_fingerprint() const {
    return fingerprint_ == &Fingerprint64;
  }

  /// Packs every key's list into one contiguous arena grouped by key in
  /// ascending key order and releases the building lists.  Idempotent.
  void Freeze();

  /// True once Freeze() has run: every posting lives in the packed arena.
  bool frozen() const { return frozen_; }

  int key_length() const { return key_length_; }
  size_t num_keys() const { return entries_.size(); }
  int64_t num_postings() const { return num_postings_; }

  /// Bytes of the flat layout: key arena + hash entries + slot table +
  /// postings.  A function of content only (sizes, not capacities), so the
  /// number is deterministic and save/load round-trips preserve it.
  size_t MemoryBytes() const;

  /// Invokes fn(key, postings) for every key in ascending key order — the
  /// deterministic iteration serialization relies on.  Allocates a sort
  /// index (not for use on the probe path).
  template <typename Fn>
  void ForEachSorted(Fn&& fn) const {
    std::vector<uint32_t> order(entries_.size());
    for (uint32_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return KeyAt(a) < KeyAt(b); });
    for (uint32_t e : order) fn(KeyAt(e), ListOf(e));
  }

 private:
  struct Entry {
    uint64_t fingerprint;
    uint32_t arena_begin = 0;  // extent within arena_, once frozen
    uint32_t arena_count = 0;
  };

  std::string_view KeyAt(size_t entry_index) const {
    return {key_arena_.data() + entry_index * static_cast<size_t>(key_length_),
            static_cast<size_t>(key_length_)};
  }
  std::span<const Posting> ListOf(size_t entry_index) const {
    if (!frozen_) return building_[entry_index];
    const Entry& e = entries_[entry_index];
    return {arena_.data() + e.arena_begin, e.arena_count};
  }
  void Rehash(size_t slot_count);

  int key_length_;
  FingerprintFn fingerprint_;
  std::vector<Entry> entries_;
  std::vector<char> key_arena_;    // entry i's key at [i*key_length, ...)
  std::vector<uint32_t> slots_;    // open addressing; entry index + 1, 0 empty
  std::vector<std::vector<Posting>> building_;  // per entry, until Freeze
  std::vector<Posting> arena_;     // frozen postings, grouped by key
  int64_t num_postings_ = 0;
  bool frozen_ = false;
};

}  // namespace ujoin

#endif  // UJOIN_INDEX_FLAT_POSTINGS_H_
