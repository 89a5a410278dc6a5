// Stress and parameterized sweeps for the storage substrate: B+Tree
// payload-size sweeps, random op fuzzing against a model (with reopens),
// WAL truncation sweeps, buffer-pool pressure, and a disk-backed TARDiS
// store running with a tiny cache.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <string>
#include <tuple>

#include "core/tardis_store.h"
#include "storage/btree_record_store.h"
#include "storage/wal.h"
#include "util/random.h"

namespace tardis {
namespace {

std::string FreshDir(const std::string& tag) {
  std::string dir = ::testing::TempDir() + "tardis_ss_" + tag + "_" +
                    std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

// ---- B+Tree payload sweep -----------------------------------------------------

class BTreePayloadSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BTreePayloadSweep, InsertLookupDelete) {
  const int key_len = std::get<0>(GetParam());
  const int value_len = std::get<1>(GetParam());
  const std::string dir = FreshDir("payload");
  auto store = BTreeRecordStore::Open(dir + "/t.db", 128);
  ASSERT_TRUE(store.ok());

  const int n = 600;
  auto key_of = [&](int i) {
    std::string k = "k" + std::to_string(i);
    k.resize(static_cast<size_t>(key_len), 'p');
    return k;
  };
  const std::string value(value_len, 'v');
  for (int i = 0; i < n; i++) {
    ASSERT_TRUE((*store)->Put(key_of(i), value).ok()) << i;
  }
  EXPECT_EQ((*store)->size(), static_cast<uint64_t>(n));
  for (int i = 0; i < n; i += 7) {
    std::string got;
    ASSERT_TRUE((*store)->Get(key_of(i), &got).ok()) << i;
    EXPECT_EQ(got.size(), value.size());
  }
  for (int i = 0; i < n; i += 2) {
    ASSERT_TRUE((*store)->Delete(key_of(i)).ok()) << i;
  }
  EXPECT_EQ((*store)->size(), static_cast<uint64_t>(n / 2));
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, BTreePayloadSweep,
    ::testing::Combine(::testing::Values(8, 64, 200),
                       ::testing::Values(0, 16, 256, 700)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "v" +
             std::to_string(std::get<1>(info.param));
    });

// ---- B+Tree fuzz vs model with reopens ------------------------------------------

class BTreeFuzz : public ::testing::TestWithParam<int> {};

TEST_P(BTreeFuzz, RandomOpsMatchModel) {
  const std::string dir = FreshDir("fuzz" + std::to_string(GetParam()));
  Random rng(GetParam());
  std::map<std::string, std::string> model;

  for (int epoch = 0; epoch < 3; epoch++) {
    auto store = BTreeRecordStore::Open(dir + "/t.db", 64);
    ASSERT_TRUE(store.ok());
    // After reopen, the tree must already match the model.
    EXPECT_EQ((*store)->size(), model.size());
    for (int op = 0; op < 1500; op++) {
      const std::string key = "key" + std::to_string(rng.Uniform(300));
      const int dice = static_cast<int>(rng.Uniform(10));
      if (dice < 5) {  // put
        const std::string value =
            std::string(1 + rng.Uniform(100), 'a' + rng.Uniform(26) % 26);
        ASSERT_TRUE((*store)->Put(key, value).ok());
        model[key] = value;
      } else if (dice < 7) {  // delete
        Status s = (*store)->Delete(key);
        EXPECT_EQ(s.ok(), model.erase(key) > 0) << key;
      } else {  // get
        std::string got;
        Status s = (*store)->Get(key, &got);
        auto it = model.find(key);
        if (it != model.end()) {
          ASSERT_TRUE(s.ok()) << key;
          EXPECT_EQ(got, it->second);
        } else {
          EXPECT_TRUE(s.IsNotFound()) << key;
        }
      }
    }
    ASSERT_TRUE((*store)->Sync().ok());
  }
  std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeFuzz, ::testing::Values(21, 42, 63));

// ---- WAL truncation sweep ---------------------------------------------------------

TEST(WalTruncationSweep, EveryCutPointRecoversPrefix) {
  const std::string dir = FreshDir("walcut");
  const std::string path = dir + "/cut.wal";
  std::vector<std::string> payloads;
  for (int i = 0; i < 6; i++) {
    payloads.push_back("record-" + std::to_string(i) +
                       std::string(10 + i * 7, 'x'));
  }
  {
    auto wal = Wal::Open(path);
    ASSERT_TRUE(wal.ok());
    for (const std::string& p : payloads) ASSERT_TRUE((*wal)->Append(p).ok());
  }
  const auto full_size = std::filesystem::file_size(path);

  // For every possible truncation point, replay must return a clean
  // prefix of the appended records — never garbage, never a crash.
  for (uintmax_t cut = 0; cut <= full_size; cut += 5) {
    std::filesystem::copy_file(
        path, path + ".cut",
        std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(path + ".cut", cut);
    auto wal = Wal::Open(path + ".cut");
    ASSERT_TRUE(wal.ok());
    size_t i = 0;
    ASSERT_TRUE((*wal)
                    ->ReadAll([&](const Slice& s) {
                      EXPECT_LT(i, payloads.size());
                      EXPECT_EQ(s.ToString(), payloads[i]);
                      i++;
                      return Status::OK();
                    })
                    .ok())
        << "cut=" << cut;
  }
  std::filesystem::remove_all(dir);
}

// ---- buffer pool pressure -----------------------------------------------------------

TEST(BufferPoolPressure, TinyCacheStillCorrect) {
  const std::string dir = FreshDir("pressure");
  // 8 frames for a tree that will span hundreds of pages.
  auto store = BTreeRecordStore::Open(dir + "/t.db", 8);
  ASSERT_TRUE(store.ok());
  const std::string value(500, 'z');
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE((*store)->Put("key" + std::to_string(i), value).ok()) << i;
  }
  Random rng(5);
  for (int probe = 0; probe < 500; probe++) {
    std::string got;
    const int i = static_cast<int>(rng.Uniform(2000));
    ASSERT_TRUE((*store)->Get("key" + std::to_string(i), &got).ok()) << i;
    EXPECT_EQ(got, value);
  }
  std::filesystem::remove_all(dir);
}

// ---- disk-backed TARDiS with a tiny cache ---------------------------------------------

TEST(TardisDiskBacked, SmallCacheEndToEnd) {
  const std::string dir = FreshDir("tardisdisk");
  TardisOptions options;
  options.dir = dir;
  options.backend = RecordBackend::kBTree;
  options.cache_pages = 16;
  auto store = TardisStore::Open(options);
  ASSERT_TRUE(store.ok());
  auto session = (*store)->CreateSession();
  for (int i = 0; i < 300; i++) {
    auto txn = (*store)->Begin(session.get());
    ASSERT_TRUE(txn.ok());
    ASSERT_TRUE((*txn)
                    ->Put("key" + std::to_string(i % 40),
                          "value" + std::to_string(i))
                    .ok());
    ASSERT_TRUE((*txn)->Commit().ok());
  }
  (*store)->PlaceCeiling(session.get());
  (*store)->RunGarbageCollection();
  auto txn = (*store)->Begin(session.get());
  ASSERT_TRUE(txn.ok());
  std::string v;
  ASSERT_TRUE((*txn)->Get("key39", &v).ok());
  EXPECT_EQ(v, "value279");  // last i with i % 40 == 39
  ASSERT_TRUE((*txn)->Get("key19", &v).ok());
  EXPECT_EQ(v, "value299");
  (*txn)->Abort();
  ASSERT_TRUE((*store)->Flush().ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace tardis
