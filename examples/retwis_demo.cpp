// Retwis on TARDiS (§7.2.2): a small social graph posts concurrently from
// multiple threads with branch-on-conflict enabled; a background resolver
// merges branches periodically, resolving duplicate ids and merging
// timelines while posts keep flowing.
//
//   $ ./examples/retwis_demo

#include <atomic>
#include <cstdio>
#include <thread>
#include <vector>

#include "apps/retwis/retwis.h"
#include "apps/retwis/retwis_merge.h"
#include "baseline/tardis_txkv.h"

using namespace tardis;
using namespace tardis::retwis;

int main() {
  auto store_or = TardisStore::Open(TardisOptions{});
  if (!store_or.ok()) return 1;
  TardisStore* tardis_store = store_or->get();
  TardisTxKv kv(tardis_store);
  Retwis app(&kv);

  // A small social graph: users 1..8, everyone follows user 1.
  auto setup = app.NewClient();
  for (uint32_t u = 1; u <= 8; u++) {
    if (!app.CreateAccount(setup.get(), u).ok()) return 1;
    if (u > 1 && !app.FollowUser(setup.get(), u, 1).ok()) return 1;
  }

  // Posters hammer the store from several threads; the celebrity's posts
  // fan out to 7 follower timelines per post, a contention hotspot that
  // would serialize a locking store.
  constexpr int kPostsPerThread = 100;
  std::atomic<uint64_t> posts{0};
  std::atomic<int> running{3};
  std::vector<std::thread> posters;
  for (int t = 0; t < 3; t++) {
    posters.emplace_back([&app, &posts, &running, t] {
      auto client = app.NewClient();
      for (int i = 0; i < kPostsPerThread; i++) {
        const uint32_t author = (t == 0) ? 1 : 2 + (i % 7);
        if (app.PostTweet(client.get(), author,
                          "post " + std::to_string(i) + " from thread " +
                              std::to_string(t))
                .ok()) {
          posts.fetch_add(1);
        }
      }
      running.fetch_sub(1);
    });
  }

  // The conflict resolver merges branches every few milliseconds while
  // posts keep flowing.
  RetwisMerger merger(tardis_store);
  uint64_t merges = 0;
  while (running.load() > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (merger.MergeOnce().ok()) merges = merger.merges();
  }
  for (auto& p : posters) p.join();
  // Final merges to converge completely.
  while (tardis_store->dag()->Leaves().size() > 1) {
    if (!merger.MergeOnce().ok()) break;
    merges = merger.merges();
  }

  auto reader = app.NewClient();
  auto timeline = app.ReadOwnTimeline(reader.get(), 2);
  if (!timeline.ok()) return 1;

  const obs::MetricsRegistry& metrics = *tardis_store->metrics();
  printf("posted %llu tweets across 3 threads\n",
         static_cast<unsigned long long>(posts.load()));
  printf("commits=%llu, branches created=%llu, merges=%llu\n",
         static_cast<unsigned long long>(
             metrics.CounterTotal("tardis_txn_commits_total")),
         static_cast<unsigned long long>(
             metrics.CounterTotal("tardis_txn_forks_total")),
         static_cast<unsigned long long>(merges));
  printf("user 2's timeline after convergence (%zu entries, newest first):\n",
         timeline->size());
  for (size_t i = 0; i < timeline->size() && i < 5; i++) {
    printf("  post %llu by user %u\n",
           static_cast<unsigned long long>((*timeline)[i].post_id),
           (*timeline)[i].author);
  }
  return 0;
}
