// ujoin-effects-fixture: as=src/filter/probe_set.cc
//
// Tracker regression: lambda bodies get their own frames.  A lambda bound
// to a name at namespace scope is called through that name, and a lambda
// inside a function is invoked by it; the allocation in each is one
// probe-path violation.  The first tracker attributed the first to "file
// scope" and let the second hide behind its enclosing function's name.
#include <string>
#include <vector>

namespace ujoin {

// File-scope lambda: runs per probe, so its locals are steady-state.
const auto kNormalizeKey = [](const std::string& key) {
  std::string lowered = key;  // local std::string inside the lambda body
  return lowered;
};

int ProbeWidth(const std::vector<int>& widths) {
  const auto pick = [&](int index) {
    std::vector<int> staged(widths);  // local container inside the lambda
    return staged[static_cast<size_t>(index)];
  };
  return pick(0);
}

class InvertedSegmentIndex {
 public:
  int Query(const std::string& key, const std::vector<int>& widths) const {
    return static_cast<int>(kNormalizeKey(key).size()) + ProbeWidth(widths);
  }
};

}  // namespace ujoin
