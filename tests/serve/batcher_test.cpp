#include <gtest/gtest.h>

#include <chrono>
#include <future>
#include <thread>
#include <vector>

#include "serve/batcher.hpp"
#include "serve/queue.hpp"

namespace mixq::serve {
namespace {

Request req(std::int64_t id) {
  Request r;
  r.id = id;
  return r;
}

TEST(RequestQueue, FifoOrderAndSize) {
  RequestQueue q;
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(q.push(req(i)));
  EXPECT_EQ(q.size(), 5u);
  Request r;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop(r));
    EXPECT_EQ(r.id, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(RequestQueue, CloseRejectsProducersButDrainsConsumers) {
  RequestQueue q;
  ASSERT_TRUE(q.push(req(1)));
  q.close();
  EXPECT_FALSE(q.push(req(2)));
  Request r;
  ASSERT_TRUE(q.pop(r));  // already-queued work survives close
  EXPECT_EQ(r.id, 1);
  EXPECT_FALSE(q.pop(r));  // closed + drained -> immediate false
}

TEST(RequestQueue, PopUnblocksOnClose) {
  RequestQueue q;
  std::thread closer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    q.close();
  });
  Request r;
  const auto t0 = Clock::now();
  EXPECT_FALSE(q.pop(r));  // wakes via close, not a timeout
  closer.join();
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(10));
}

TEST(MicroBatcher, CoalescesQueuedBurstUpToMaxBatch) {
  RequestQueue q;
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(q.push(req(i)));
  q.close();
  MicroBatcher b(q, {/*max_batch=*/4});
  std::vector<Request> batch;
  ASSERT_TRUE(b.next_batch(batch));
  ASSERT_EQ(batch.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(batch[i].id, i);
  ASSERT_TRUE(b.next_batch(batch));
  ASSERT_EQ(batch.size(), 4u);
  ASSERT_TRUE(b.next_batch(batch));
  ASSERT_EQ(batch.size(), 2u);  // FIFO tail, not dropped
  EXPECT_FALSE(b.next_batch(batch));
  EXPECT_TRUE(batch.empty());
}

TEST(MicroBatcher, LoneRequestIsNotHeldForBatchMates) {
  RequestQueue q;
  ASSERT_TRUE(q.push(req(7)));
  // A 60 s wait in the unread field: a batcher that honoured it would
  // hold the lone request far past the 10 s bound below.
  MicroBatcher b(q, {/*max_batch=*/8, /*max_wait_us=*/60'000'000});
  std::vector<Request> batch;
  bool ok = false;
  std::promise<void> returned;
  std::future<void> done = returned.get_future();
  std::thread worker([&] {
    ok = b.next_batch(batch);
    returned.set_value();
  });
  // The queue stays open until the bound has passed, so a return inside
  // it was not caused by close().
  const bool in_time =
      done.wait_for(std::chrono::seconds(10)) == std::future_status::ready;
  q.close();  // releases a batcher still waiting, so the join cannot hang
  worker.join();
  EXPECT_TRUE(in_time) << "a lone request waited for batch-mates";
  EXPECT_TRUE(ok);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 7);
}

TEST(MicroBatcher, TakesWhatIsQueuedAndLeavesLaterArrivalsToTheNextBatch) {
  RequestQueue q;
  MicroBatcher b(q, {/*max_batch=*/8});
  for (int i = 1; i <= 3; ++i) ASSERT_TRUE(q.push(req(i)));
  std::vector<Request> batch;
  // The queue is open and holds fewer than max_batch: the batch is what
  // is queued, taken without waiting for the rest.
  ASSERT_TRUE(b.next_batch(batch));
  ASSERT_EQ(batch.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(batch[i].id, i + 1);
  EXPECT_EQ(q.size(), 0u);
  ASSERT_TRUE(q.push(req(4)));
  ASSERT_TRUE(b.next_batch(batch));
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_EQ(batch[0].id, 4);
}

TEST(MicroBatcher, CloseReleasesBlockedBatcherAndLosesNothing) {
  RequestQueue q;
  MicroBatcher b(q, {/*max_batch=*/8});
  std::vector<Request> first;
  std::vector<Request> second{req(0)};  // next_batch must clear it
  bool got_first = false;
  bool got_second = true;
  std::thread worker([&] {
    got_first = b.next_batch(first);
    got_second = b.next_batch(second);  // blocks until close()
  });
  const bool pushed = q.push(req(5));
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  const auto t0 = Clock::now();
  q.close();
  worker.join();
  EXPECT_TRUE(pushed);
  EXPECT_LT(Clock::now() - t0, std::chrono::seconds(30));
  EXPECT_TRUE(got_first);  // the admitted request reached a batch
  ASSERT_EQ(first.size(), 1u);
  EXPECT_EQ(first[0].id, 5);
  EXPECT_FALSE(got_second);  // closed and drained: the loop exits
  EXPECT_TRUE(second.empty());
}

}  // namespace
}  // namespace mixq::serve
