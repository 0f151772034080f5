// ujoin-effects-fixture: as=src/index/flat_postings.cc
//
// Tracker regression: constructor init lists.  The first tracker
// attributed a constructor body following `: a_(x), b_(y)` to the last
// initializer name (`slots_` here).  The fixed tracker attributes the body
// to the constructor itself, so its build-time allocations, and those of
// the lambda inside Freeze, stay off the probe root's reach.
#include <algorithm>
#include <string>
#include <vector>

namespace ujoin {

class FlatPostings {
 public:
  FlatPostings(size_t keys, size_t stride)
      : stride_(stride),
        slots_(keys * 2) {
    std::vector<char> arena(keys * stride);  // build time
    arena_ = arena;
  }

  void Freeze() {
    std::vector<int> order(slots_);  // build time
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      std::string ka(1, arena_[static_cast<size_t>(a)]);  // in Freeze's lambda
      std::string kb(1, arena_[static_cast<size_t>(b)]);
      return ka < kb;
    });
  }

  size_t stride() const { return stride_; }

 private:
  size_t stride_;
  size_t slots_;
  std::vector<char> arena_;
};

class LengthBucketIndex {
 public:
  size_t QueryCandidates() const { return lists_.stride(); }

 private:
  FlatPostings lists_;
};

}  // namespace ujoin
