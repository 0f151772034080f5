// ujoin-effects-fixture: as=src/index/flat_postings.cc
//
// Seeded violations: allocations in lookups the probe root reaches, one
// per allocation kind (local container, local string, new, malloc), so
// each kind is one probe-path violation.  The lookups run once per
// posting-list probe; any of them would break the steady-state
// zero-allocation guarantee the operator-new hook tests enforce at runtime.
#include <cstdlib>
#include <string>
#include <vector>

namespace ujoin {

class FlatPostings {
 public:
  int FindCopy(const std::string& key) const {
    std::vector<char> copy(key.begin(), key.end());  // violation
    return static_cast<int>(copy.size());
  }
  int FindPadded(const std::string& key) const {
    std::string padded = key + "\0";  // violation
    return static_cast<int>(padded.size());
  }
  int FindScratch(int n) const {
    int* scratch = new int[4];  // violation
    delete[] scratch;
    return n;
  }
  int FindRaw(int n) const {
    void* raw = std::malloc(static_cast<size_t>(n));  // violation
    std::free(raw);
    return n;
  }
};

class LengthBucketIndex {
 public:
  int QueryCandidates(const std::string& key) const {
    return lists_.FindCopy(key) + lists_.FindPadded(key) +
           lists_.FindScratch(1) + lists_.FindRaw(1);
  }

 private:
  FlatPostings lists_;
};

}  // namespace ujoin
