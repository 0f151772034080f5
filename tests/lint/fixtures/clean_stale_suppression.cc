// ujoin-lint-fixture: as=src/index/flat_postings.cc rule=stale-suppression expect=0
//
// Clean counterpart of bad_stale_suppression.cc: every suppression below
// absorbs a real violation on its own or the following line, so none is
// stale.
#include <string>
#include <unordered_map>

namespace ujoin {

class FlatPostings {
 public:
  int DebugTotal() const {
    // Order-free sum for a debug dump: both escapes are used.
    int total = 0;
    // ujoin-lint: allow(unordered-iteration) -- the sum ignores order
    for (const auto& [key, count] : counts_) total += count;
    auto it = counts_.begin();  // ujoin-lint: allow(unordered-iteration)
    return total + (it == counts_.end() ? 0 : it->second);
  }

 private:
  std::unordered_map<std::string, int> counts_;
};

}  // namespace ujoin
