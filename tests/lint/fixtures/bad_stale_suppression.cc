// ujoin-lint-fixture: as=src/index/flat_postings.cc rule=stale-suppression expect=3
//
// Stale suppressions: an `ujoin-lint: allow(<rule>)` that absorbs no
// violation is itself a violation — it either outlived the code it
// excused or names the wrong rule, and both silently disable review.
#include <string>
#include <vector>

namespace ujoin {

class FlatPostings {
 public:
  int CountFor(int key) const {
    // The unordered walk this once excused was refactored away; the escape
    // hatch is now held open for whatever lands on the next line.
    // ujoin-lint: allow(unordered-iteration)
    return key + size_;
  }

  int SizeTimes(int factor) const {
    // A typo'd rule name never matched anything, so the "suppressed"
    // violation would still have been reported had there been one.
    return size_ * factor;  // ujoin-lint: allow(unordered-iterations)
  }

  int Saturate(int v) const {
    // Allowing the staleness rule itself is rejected: delete stale
    // comments instead of suppressing the report about them.
    return v < 0 ? 0 : v;  // ujoin-lint: allow(stale-suppression)
  }

 private:
  int size_ = 0;
};

}  // namespace ujoin
