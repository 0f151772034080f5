// Regression test for SearchServer::Stop's wake-up of idle connection
// workers.  Stop must publish its stop flag under the mailbox lock: a
// worker that has tested its wait predicate but not yet blocked would
// otherwise miss the notify and sleep forever, and Stop would hang joining
// it.  A worker of a server stopped right after Start can be in that
// window, but the window is only a few instructions wide: an optimised
// build rarely hits it, while under ThreadSanitizer, whose interceptors
// widen it, the unfixed Stop hangs within 2 000 iterations.  Run this test
// in the TSan leg too; the ctest TIMEOUT turns a hang into a failure.

#include <gtest/gtest.h>

#include "datagen/datagen.h"
#include "join/search.h"
#include "serve/search_server.h"

namespace ujoin {
namespace {

TEST(ServeStartStopTest, ImmediateStopNeverHangs) {
  DatasetOptions opt;
  opt.kind = DatasetOptions::Kind::kNames;
  opt.size = 20;
  opt.seed = 29;
  const Dataset dataset = GenerateDataset(opt);
  Result<SimilaritySearcher> searcher = SimilaritySearcher::Create(
      dataset.strings, dataset.alphabet, JoinOptions::Qfct(2, 0.1));
  ASSERT_TRUE(searcher.ok());

  constexpr int kIterations = 2000;
  for (int i = 0; i < kIterations; ++i) {
    serve::SearchServer server(&searcher.value(), serve::ServeOptions{});
    ASSERT_TRUE(server.Start().ok()) << "iteration " << i;
    server.Stop();
  }
}

}  // namespace
}  // namespace ujoin
