// ujoin-effects-fixture: as=src/index/segment_index.cc
//
// Tracker regression: operator definitions get frames.  The first tracker
// found no enclosing function for `operator==` or for an operator[] in a
// class template, so allocations inside them went unattributed.  Operator
// calls are not extracted as call edges; a probe root that relies on an
// operator names it with calls(), which puts the operator body under the
// contract: each allocation below is one probe-path violation.
#include <string>
#include <vector>

namespace ujoin {

struct SegmentKey {
  int length;
  int ordinal;
};

bool operator==(const SegmentKey& a, const SegmentKey& b) {
  std::vector<int> parts{a.length, a.ordinal};  // local container
  return parts[0] == b.length && parts[1] == b.ordinal;
}

template <typename P>
class PostingCursor {
 public:
  const P& operator[](size_t i) const {
    std::string tag(i, 'x');  // local std::string inside operator[]
    return postings_[tag.size()];
  }

 private:
  std::vector<P> postings_;
};

class InvertedSegmentIndex {
 public:
  bool Query(const SegmentKey& key, const PostingCursor<int>& cursor) const {
    // ujoin-effect: calls(ujoin::operator==, PostingCursor::operator[])
    return key == key_ && cursor[0] == 0;
  }

 private:
  SegmentKey key_;
};

}  // namespace ujoin
