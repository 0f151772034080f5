// ujoin-effects-fixture: as=src/index/flat_postings.cc
//
// Blessed allocation: the probe root reaches an allocating lookup whose
// declares(alloc) states that it allocates on purpose, like the legacy
// allocating Query overloads kept for API compatibility.  The tree is
// clean, and the self-test strips the annotation to prove it
// load-bearing: without it the same tree has one violation.
#include <string>
#include <vector>

namespace ujoin {

struct Posting {
  int id;
};

class FlatPostings {
 public:
  std::vector<Posting> FindAll(const std::string& key) const {
    // ujoin-effect: declares(alloc) -- allocating API kept for tests
    std::vector<Posting> out;
    out.push_back(Posting{static_cast<int>(key.size())});
    std::string copy = key;
    return out;
  }
};

class LengthBucketIndex {
 public:
  size_t QueryCandidates(const std::string& key) const {
    return lists_.FindAll(key).size();
  }

 private:
  FlatPostings lists_;
};

}  // namespace ujoin
