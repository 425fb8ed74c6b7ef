// Format tests for the attack journal (src/attack/journal.h): the writer
// writes fixed golden bytes; a load of any prefix of a journal returns
// exactly the complete records inside it; no single-bit flip past the
// header replays a changed record; foreign files (old format versions, the
// other file kind, another run's header) replay nothing and are
// overwritten; and a record of the other file kind ends the replay like a
// torn tail.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "gtest/gtest.h"
#include "src/attack/driver.h"
#include "src/attack/fault_injection.h"
#include "src/attack/journal.h"

namespace geattack {
namespace {

// Every v3 file ever written must keep loading, so these bytes change
// only with a header version bump.
constexpr std::string_view kDriverGolden =
    "geajournal v3\n"
    "meta 7 3\n"
    "r 1 2 2 2 5 0 4 28\n"
    "deadline hit\n"
    "after 2 picks ;\n"
    "c 3527869250 ;\n";

constexpr std::string_view kWalGolden =
    "geajournal v3\n"
    "meta 9 -1\n"
    "s 0 0 0 4 1 2 3 4\n"
    "g v1\n"
    "c 1423581408 ;\n"
    "g 1 1 0 1 1 3 2 2 4 0 5 4\n"
    "g v1\n"
    "c 1238896397 ;\n"
    "t 0 1 2 1 1 1 0 4 14\n"
    "target 4: boom\n"
    "c 29578515 ;\n";

struct Journal {
  std::string_view golden;
  uint64_t base_seed;
  int64_t count;
  std::vector<JournalRecord> records;
};

Journal DriverJournal() {
  // The message holds a newline and " ;", which only the length prefix
  // tells apart from the trailer.
  return {kDriverGolden, 7, 3,
          {TargetRecord{
              .request_index = 1,
              .result = {.added_edges = {{2, 5}, {0, 4}},
                         .status = Status::TimedOut(
                             "deadline hit\nafter 2 picks ;")}}}};
}

Journal ServiceWal() {
  return {kWalGolden, 9, -1,
          {ServiceSubmitRecord{.ticket = 0,
                               .accepted_index = 0,
                               .epoch = 0,
                               .target_node = 4,
                               .target_label = 1,
                               .budget = 2,
                               .priority = 3,
                               .version = "g v1"},
           ServiceChurnRecord{.version = "g v1",
                              .epoch = 1,
                              .bumped_tickets = {0},
                              .added = {{1, 3}},
                              .removed = {{2, 4}, {0, 5}}},
           ServiceCompleteRecord{
               .ticket = 0,
               .attempts = 1,
               .effective_budget = 2,
               .epoch = 1,
               .result = {.added_edges = {{4, 0}},
                          .status = Status::Error("target 4: boom")}}}};
}

std::string Describe(const AttackResult& r) {
  std::ostringstream os;
  os << StatusCodeName(r.status.code()) << " \"" << r.status.message()
     << "\" edges";
  for (const Edge& e : r.added_edges) os << ' ' << e.u << '-' << e.v;
  return os.str();
}

/// Every field of a record, so record lists compare with readable diffs.
std::string Describe(const JournalRecord& record) {
  std::ostringstream os;
  if (const auto* r = std::get_if<TargetRecord>(&record)) {
    os << "r " << r->request_index << ' ' << Describe(r->result);
  } else if (const auto* s = std::get_if<ServiceSubmitRecord>(&record)) {
    os << "s " << s->ticket << ' ' << s->accepted_index << ' ' << s->epoch
       << ' ' << s->target_node << ' ' << s->target_label << ' ' << s->budget
       << ' ' << s->priority << " \"" << s->version << '"';
  } else if (const auto* g = std::get_if<ServiceChurnRecord>(&record)) {
    os << "g " << g->epoch << " \"" << g->version << "\" bumped";
    for (const int64_t t : g->bumped_tickets) os << ' ' << t;
    os << " added";
    for (const Edge& e : g->added) os << ' ' << e.u << '-' << e.v;
    os << " removed";
    for (const Edge& e : g->removed) os << ' ' << e.u << '-' << e.v;
  } else {
    const auto& t = std::get<ServiceCompleteRecord>(record);
    os << "t " << t.ticket << ' ' << t.attempts << ' ' << t.effective_budget
       << ' ' << t.epoch << ' ' << Describe(t.result);
  }
  return os.str();
}

std::vector<std::string> Describe(const std::vector<JournalRecord>& records,
                                  size_t first) {
  std::vector<std::string> out;
  for (size_t i = 0; i < first && i < records.size(); ++i)
    out.push_back(Describe(records[i]));
  return out;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "geattack_journal_test_" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(os.good()) << path;
}

/// Writes `journal`'s records through a fresh JournalWriter at `path` and
/// returns the file size after the header and after each record: the
/// record boundaries.
std::vector<size_t> WriteJournal(const Journal& journal,
                                 const std::string& path) {
  std::remove(path.c_str());
  JournalWriter writer;
  EXPECT_TRUE(writer.Open(path, 0, journal.base_seed, journal.count).ok());
  std::vector<size_t> ends = {ReadFile(path).size()};
  for (const JournalRecord& record : journal.records) {
    EXPECT_TRUE(writer.Append(record).ok());
    ends.push_back(ReadFile(path).size());
  }
  return ends;
}

/// `bytes` with the header's format version ("v3") replaced.
std::string WithVersion(std::string_view bytes, const char* version) {
  std::string out(bytes);
  const size_t at = std::string_view("geajournal ").size();
  EXPECT_EQ(out.compare(at, 3, "v3\n"), 0);
  out.replace(at, 2, version);
  return out;
}

/// Loads `bytes` as `journal`'s kind of file.
JournalLoadResult LoadBytes(const Journal& journal, std::string_view bytes,
                            const std::string& path) {
  WriteFile(path, bytes);
  return LoadJournal(path, journal.base_seed, journal.count);
}

TEST(JournalFormatTest, WriterWritesTheGoldenBytes) {
  for (const Journal& journal : {DriverJournal(), ServiceWal()}) {
    const std::string path = TempPath("golden");
    WriteJournal(journal, path);
    EXPECT_EQ(ReadFile(path), journal.golden);
    std::remove(path.c_str());
  }
}

TEST(JournalFormatTest, EveryPrefixLoadsExactlyTheCompleteRecords) {
  for (const Journal& journal : {DriverJournal(), ServiceWal()}) {
    const std::string path = TempPath("prefix");
    const std::vector<size_t> ends = WriteJournal(journal, path);
    ASSERT_EQ(ends.back(), journal.golden.size());
    for (size_t len = 0; len <= journal.golden.size(); ++len) {
      const JournalLoadResult loaded =
          LoadBytes(journal, journal.golden.substr(0, len), path);
      const std::string where = "prefix " + std::to_string(len);
      EXPECT_TRUE(loaded.status.ok()) << where << ": "
                                      << loaded.status.ToString();
      if (len < ends[0]) {
        // A torn header is foreign: nothing replays, the writer rewrites.
        EXPECT_FALSE(loaded.header_ok) << where;
        EXPECT_EQ(loaded.valid_bytes, 0) << where;
        EXPECT_TRUE(loaded.records.empty()) << where;
        continue;
      }
      size_t complete = 0;  // Records whose last byte is inside the prefix.
      while (complete + 1 < ends.size() && ends[complete + 1] <= len)
        ++complete;
      EXPECT_TRUE(loaded.header_ok) << where;
      EXPECT_EQ(loaded.valid_bytes, static_cast<int64_t>(ends[complete]))
          << where;
      EXPECT_EQ(Describe(loaded.records, loaded.records.size()),
                Describe(journal.records, complete))
          << where;
    }
    std::remove(path.c_str());
  }
}

TEST(JournalFormatTest, NoBitFlipPastTheHeaderReplaysAChangedRecord) {
  for (const Journal& journal : {DriverJournal(), ServiceWal()}) {
    const std::string path = TempPath("flip");
    const std::vector<size_t> ends = WriteJournal(journal, path);
    size_t record = 0;  // The record holding the flipped byte.
    for (size_t at = ends[0]; at < journal.golden.size(); ++at) {
      while (ends[record + 1] <= at) ++record;
      for (int bit = 0; bit < 8; ++bit) {
        std::string bytes(journal.golden);
        bytes[at] = static_cast<char>(bytes[at] ^ (1 << bit));
        const JournalLoadResult loaded = LoadBytes(journal, bytes, path);
        const std::string where = "byte " + std::to_string(at) + " bit " +
                                  std::to_string(bit);
        // The replay stops before the flipped record — as a torn tail, or
        // as data loss when the record still parses — and everything
        // before it replays unchanged.
        EXPECT_TRUE(loaded.status.ok() ||
                    loaded.status.code() == StatusCode::kDataLoss)
            << where << ": " << loaded.status.ToString();
        EXPECT_TRUE(loaded.header_ok) << where;
        EXPECT_EQ(loaded.valid_bytes, static_cast<int64_t>(ends[record]))
            << where;
        EXPECT_EQ(Describe(loaded.records, loaded.records.size()),
                  Describe(journal.records, record))
            << where;
      }
    }
    std::remove(path.c_str());
  }
}

TEST(JournalFormatTest, ForeignHeadersReplayNothing) {
  const Journal driver = DriverJournal();
  const Journal wal = ServiceWal();
  const std::string path = TempPath("foreign");
  const std::string v1 = WithVersion(kDriverGolden, "v1");
  const std::string v2 = WithVersion(kDriverGolden, "v2");
  const struct {
    const char* what;
    std::string_view bytes;
    uint64_t base_seed;
    int64_t count;
  } cases[] = {
      {"v1 header", v1, driver.base_seed, driver.count},
      {"v2 header", v2, driver.base_seed, driver.count},
      {"another seed", kDriverGolden, driver.base_seed + 1, driver.count},
      {"another request count", kDriverGolden, driver.base_seed, 4},
      {"driver journal opened as a WAL", kDriverGolden, driver.base_seed, -1},
      {"WAL opened as a driver journal", kWalGolden, wal.base_seed, 3},
      {"WAL opened as an empty driver run", kWalGolden, wal.base_seed, 0},
  };
  for (const auto& c : cases) {
    WriteFile(path, c.bytes);
    const JournalLoadResult loaded = LoadJournal(path, c.base_seed, c.count);
    EXPECT_TRUE(loaded.status.ok()) << c.what;
    EXPECT_FALSE(loaded.header_ok) << c.what;
    EXPECT_EQ(loaded.valid_bytes, 0) << c.what;
    EXPECT_TRUE(loaded.records.empty()) << c.what;
  }
  std::remove(path.c_str());
}

TEST(JournalFormatTest, RecordOfTheOtherKindEndsTheReplay) {
  const Journal driver = DriverJournal();
  const Journal wal = ServiceWal();
  const std::string path = TempPath("cross_kind");
  const std::vector<size_t> d = WriteJournal(driver, path);
  const std::vector<size_t> w = WriteJournal(wal, path);
  const std::string_view r_record = kDriverGolden.substr(d[0], d[1] - d[0]);
  const std::string_view s_record = kWalGolden.substr(w[0], w[1] - w[0]);

  // A WAL with an `r` record after its `s`: the `s` replays, then the
  // replay ends as at a torn tail (the `g` and `t` after it are dropped).
  std::string bytes(kWalGolden.substr(0, w[1]));
  bytes += r_record;
  bytes += kWalGolden.substr(w[1]);
  JournalLoadResult loaded = LoadBytes(wal, bytes, path);
  EXPECT_TRUE(loaded.status.ok()) << loaded.status.ToString();
  EXPECT_EQ(loaded.valid_bytes, static_cast<int64_t>(w[1]));
  EXPECT_EQ(Describe(loaded.records, loaded.records.size()),
            Describe(wal.records, 1));

  // A driver journal with an `s` record after its `r`.
  bytes = std::string(kDriverGolden);
  bytes += s_record;
  bytes += r_record;
  loaded = LoadBytes(driver, bytes, path);
  EXPECT_TRUE(loaded.status.ok()) << loaded.status.ToString();
  EXPECT_EQ(loaded.valid_bytes, static_cast<int64_t>(d[1]));
  EXPECT_EQ(Describe(loaded.records, loaded.records.size()),
            Describe(driver.records, 1));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Driver resume over foreign and cut files.
// ---------------------------------------------------------------------------

/// Picks one edge per target from the target's own seed stream, so a run
/// needs no model and its results depend only on (base_seed, index).
class SeededPickAttack : public TargetedAttack {
 public:
  std::string name() const override { return "seeded-pick"; }
  AttackResult Attack(const AttackContext& ctx, const AttackRequest& request,
                      Rng* rng) const override {
    const int64_t n = ctx.data->num_nodes();
    AttackResult result;
    result.added_edges.emplace_back(
        request.target_node,
        (request.target_node + rng->UniformInt(1, n - 1)) % n);
    return result;
  }
};

class JournalResumeTest : public ::testing::Test {
 protected:
  JournalResumeTest() {
    data_.graph = Graph(8);
    data_.labels.assign(8, 0);
    data_.num_classes = 2;
    ctx_.data = &data_;
    for (int64_t node = 0; node < 6; ++node)
      requests_.push_back({.target_node = node, .target_label = 1});
    config_.base_seed = 41;
    config_.num_threads = 1;  // Record order = request order.
    config_.journal_path = TempPath("resume");
    std::remove(config_.journal_path.c_str());
  }
  ~JournalResumeTest() override { std::remove(config_.journal_path.c_str()); }

  /// Runs the driver over the current journal file; returns how many
  /// targets it attacked (the rest were replayed).
  int64_t Run(std::vector<AttackResult>* results) {
    FaultInjectingAttack counted(&attack_);
    *results = RunMultiTargetAttack(ctx_, counted, requests_, config_);
    return counted.attack_calls();
  }

  void ExpectSameResults(const std::vector<AttackResult>& got,
                         const std::vector<AttackResult>& want,
                         const std::string& where) {
    ASSERT_EQ(got.size(), want.size()) << where;
    for (size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(Describe(got[i]), Describe(want[i])) << where << " target "
                                                     << i;
  }

  GraphData data_;
  AttackContext ctx_;
  std::vector<AttackRequest> requests_;
  AttackDriverConfig config_;
  SeededPickAttack attack_;
};

TEST_F(JournalResumeTest, LegacyFilesAreForeignAndOverwrittenAsV3) {
  std::vector<AttackResult> uninterrupted;
  ASSERT_EQ(Run(&uninterrupted), 6);
  const std::string v3 = ReadFile(config_.journal_path);
  ASSERT_EQ(v3.compare(0, 14, "geajournal v3\n"), 0);

  // The first two records under an old header, as a killed run of an older
  // build would have left them: v2 is v3's grammar, v1 has no CRC lines.
  size_t cut = 0;
  for (int record = 0; record < 2; ++record) cut = v3.find(" ;\n", cut) + 3;
  const std::string v2 = WithVersion(v3.substr(0, cut), "v2");
  std::string v1 = WithVersion(v3.substr(0, cut), "v1");
  for (size_t crc = v1.find("\nc "); crc != std::string::npos;
       crc = v1.find("\nc "))
    v1.replace(crc, v1.find(" ;\n", crc) + 3 - crc, "\n;\n");

  for (const std::string& legacy : {v1, v2}) {
    const std::string where = legacy.substr(0, 13);
    WriteFile(config_.journal_path, legacy);
    std::vector<AttackResult> resumed;
    EXPECT_EQ(Run(&resumed), 6) << where << ": nothing may replay";
    ExpectSameResults(resumed, uninterrupted, where);
    EXPECT_EQ(ReadFile(config_.journal_path), v3) << where;
  }
}

TEST_F(JournalResumeTest, RecordCutBeforeItsFinalNewlineIsRewritten) {
  std::vector<AttackResult> uninterrupted;
  ASSERT_EQ(Run(&uninterrupted), 6);
  const std::string full = ReadFile(config_.journal_path);

  // Keep the first record and the second up to its ';' — one byte short of
  // complete.  The second is recomputed and rewritten whole, so nothing
  // appended after it can glue onto its trailer.
  size_t cut = 0;
  for (int record = 0; record < 2; ++record) cut = full.find(" ;\n", cut) + 3;
  WriteFile(config_.journal_path, full.substr(0, cut - 1));
  std::vector<AttackResult> resumed;
  EXPECT_EQ(Run(&resumed), 5);
  ExpectSameResults(resumed, uninterrupted, "resumed");
  EXPECT_EQ(ReadFile(config_.journal_path), full);

  std::vector<AttackResult> replayed;
  EXPECT_EQ(Run(&replayed), 0);
  ExpectSameResults(replayed, uninterrupted, "replayed");
}

}  // namespace
}  // namespace geattack
