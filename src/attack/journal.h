// Append-only, fsync'd write-ahead journals for attack runs and the live
// attack service ("geajournal v3"; v1 and v2 journals still load).
//
// Two journal flavors share one on-disk grammar:
//
//   * DRIVER journals (one per RunMultiTargetAttack call): one `r` record
//     per completed target; a killed run resumes by replaying the journal
//     and attacking only the missing targets.  Because every target draws
//     from its own TargetSeed(base_seed, request_index) stream, the resumed
//     targets compute exactly what an uninterrupted run would have — final
//     results are byte-identical.
//   * SERVICE journals (WAL of a long-lived AttackService): `s` records
//     make admissions durable before Submit returns, `g` records log each
//     churn batch (with the tickets it re-pinned), and `t` records log each
//     finalized ticket.  AttackService::Recover replays the WAL in file
//     order — rebuilding every epoch, completed result, and still-pending
//     ticket from journal records alone (no clock bits) — and re-runs only
//     the remainder.
//
// On-disk format (line-oriented text, reusing src/graph/io_text.h):
//
//   geajournal v3
//   meta <base_seed> <num_requests>        (service WALs use -1: streaming)
//   r <request_index> <status_code> <num_edges> [u v]... <msg_len>
//   <msg_len raw message bytes>
//   c <crc32> ;
//   s <ticket> <accepted_index> <epoch> <target> <label> <budget> <priority>
//     <name_len>                           (one line in the file)
//   <name_len raw version-name bytes>
//   c <crc32> ;
//   g <epoch> <n_bumped> [ticket]... <n_add> [u v]... <n_rem> [u v]...
//     <name_len>                           (one line in the file)
//   <name_len raw version-name bytes>
//   c <crc32> ;
//   t <ticket> <attempts> <effective_budget> <epoch> <status_code>
//     <num_edges> [u v]... <msg_len>       (one line in the file)
//   <msg_len raw message bytes>
//   c <crc32> ;
//
// Status messages and version names are length-prefixed raw bytes so
// replayed results carry byte-identical diagnostics.  Every record's `c`
// line carries a CRC32 (polynomial 0xEDB88320) over the record bytes from
// the leading tag through the end of the raw payload, so a flipped byte
// inside an otherwise-parseable record — e.g. a silently corrupted edge
// endpoint that still range-checks — is detected instead of replayed as a
// wrong-but-plausible result.  v1 records (no `c` line) load without
// integrity checking for backward compatibility; v2 differs from v3 only in
// the header (no service records were ever written under v2, and `r`
// records are grammar-identical), so a v2 driver journal resumes in place
// without a rewrite.  A v1 journal cannot take CRC'd appends under its
// header, so the driver migrates it — atomically: the replayed records are
// rewritten to `<path>.rewrite.tmp`, fsync'd, and rename(2)'d over the
// original, so a kill at ANY point mid-migration leaves either the intact
// v1 file or a complete v3 file, never a half-rewritten hybrid
// (RewriteJournal below; pinned by fault_tolerance_test).
//
// Records are durable when Append returns (write + fsync; the opening of a
// journal also fsyncs the PARENT DIRECTORY, so a crash right after creation
// cannot lose the directory entry itself).  A torn tail (the record being
// written when the process died) parses as invalid and is truncated away on
// resume, silently — that is the expected kill artifact.  A *complete*
// record whose CRC mismatches is different: it is structured data loss,
// reported in the load result's status; replay stops before it and the
// resuming writer truncates from there, so the corrupt record is recomputed
// rather than trusted.  A journal whose header or meta line does not match
// the run (different seed or request count) is ignored and overwritten — it
// belongs to some other run.

#ifndef GEATTACK_SRC_ATTACK_JOURNAL_H_
#define GEATTACK_SRC_ATTACK_JOURNAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/attack/attack.h"
#include "src/base/status.h"

namespace geattack {

/// One replayed driver-journal entry: the whole AttackResult (added_edges
/// and status).
struct JournalRecord {
  int64_t request_index = -1;
  AttackResult result;
};

struct JournalLoadResult {
  /// Ok, or kDataLoss when a complete CRC'd record failed its check (the
  /// record and everything after it are dropped from `records`, and
  /// valid_bytes points before it so the corrupt tail is truncated on
  /// resume).  A torn tail is NOT data loss — it is the normal kill
  /// artifact.
  Status status;
  /// Magic + meta matched this run's (base_seed, num_requests).
  bool header_ok = false;
  /// The file was "geajournal v1" (records carry no CRC).  A legacy journal
  /// replays fine, but the driver must not append CRC'd records under a v1
  /// header — it migrates the file to v3 via RewriteJournal (atomic
  /// tmp + rename) before resuming.
  bool legacy = false;
  /// Byte offset just past the last complete record — the resume offset.
  /// 0 when header_ok is false (the file will be overwritten).
  int64_t valid_bytes = 0;
  /// Complete records in file order (indices validated against
  /// num_requests; the driver takes the first record per index — the
  /// writer appends each target exactly once, so duplicates only arise
  /// from corruption).
  std::vector<JournalRecord> records;
};

/// Replays `path`.  A missing or unreadable file is a normal fresh start
/// (header_ok = false, no records).  Parsing stops at the first torn or
/// malformed record; everything before it is returned.
JournalLoadResult LoadAttackJournal(const std::string& path,
                                    uint64_t base_seed, int64_t num_requests);

/// Appends durable records; one instance per run, writes serialized by the
/// driver's journal mutex.
class AttackJournalWriter {
 public:
  AttackJournalWriter() = default;
  ~AttackJournalWriter();
  AttackJournalWriter(const AttackJournalWriter&) = delete;
  AttackJournalWriter& operator=(const AttackJournalWriter&) = delete;

  /// Opens `path` truncated to `resume_offset` (any torn tail past the last
  /// complete record is discarded); offset 0 starts fresh and writes the
  /// v3 header + meta lines.  Durability: the file AND its parent
  /// directory are fsync'd before this returns, so a crash immediately
  /// after creation cannot lose the directory entry.
  Status Open(const std::string& path, int64_t resume_offset,
              uint64_t base_seed, int64_t num_requests);

  bool is_open() const { return fd_ >= 0; }

  /// Appends one record; durable (fsync'd) when this returns Ok.
  Status Append(int64_t request_index, const AttackResult& result);

 private:
  int fd_ = -1;
};

/// Atomically replaces `path` with a fresh v3 journal holding exactly
/// `records`: writes `<path>.rewrite.tmp`, fsyncs it, rename(2)s it over
/// `path`, and fsyncs the parent directory.  A kill before the rename
/// leaves `path` untouched (plus a stale tmp the next rewrite truncates); a
/// kill after it leaves the complete new file — never a half-rewritten
/// journal.  On success `*resume_offset` is the new file size, ready to
/// pass to AttackJournalWriter::Open.
Status RewriteJournal(const std::string& path, uint64_t base_seed,
                      int64_t num_requests,
                      const std::vector<JournalRecord>& records,
                      int64_t* resume_offset);

// ----- Service WAL (AttackService crash recovery). ---------------------------

/// One applied churn batch (`g`).  `bumped_tickets` lists the queued
/// tickets the service re-pinned to the new epoch, journaled explicitly so
/// recovery replays the pinning decision instead of re-deriving a
/// load-order-dependent overlap rule.
struct ServiceChurnRecord {
  std::string version;
  int64_t epoch = 0;  ///< The epoch this batch created (prev epoch + 1).
  std::vector<int64_t> bumped_tickets;
  std::vector<Edge> added;
  std::vector<Edge> removed;
};

/// One durable admission (`s`), appended before Submit returns its ticket.
struct ServiceSubmitRecord {
  int64_t ticket = -1;
  int64_t accepted_index = -1;
  int64_t epoch = 0;  ///< Epoch of `version` the request was pinned to.
  int64_t target_node = -1;
  int64_t target_label = -1;
  int64_t budget = 0;
  int64_t priority = 0;
  std::string version;
};

/// One finalized ticket (`t`) — the commit point of exactly-once delivery:
/// a ticket with a complete `t` record replays its recorded result on
/// recovery; one without is re-run on its recorded seed stream.
struct ServiceCompleteRecord {
  int64_t ticket = -1;
  int64_t attempts = 0;
  int64_t effective_budget = 0;
  int64_t epoch = 0;  ///< Epoch the final attempt was computed at.
  AttackResult result;  ///< Status + added_edges: the whole result.
};

/// One WAL event in file order.
struct ServiceJournalEvent {
  enum class Kind { kChurn, kSubmit, kComplete };
  Kind kind = Kind::kSubmit;
  ServiceChurnRecord churn;
  ServiceSubmitRecord submit;
  ServiceCompleteRecord complete;
};

struct ServiceJournalLoadResult {
  /// Ok, or kDataLoss for a complete record failing CRC (as above).
  Status status;
  /// Magic v3 + meta matched (base_seed, -1).
  bool header_ok = false;
  /// Resume offset past the last complete record.
  int64_t valid_bytes = 0;
  std::vector<ServiceJournalEvent> events;
};

/// Replays a service WAL.  Same fresh-start / torn-tail / CRC semantics as
/// LoadAttackJournal; only v3 headers qualify (service records never
/// existed before v3).
ServiceJournalLoadResult LoadServiceJournal(const std::string& path,
                                            uint64_t base_seed);

/// Append-side of the service WAL; writes serialized under the service's
/// mutex so file order equals admission/finalization order.
class ServiceJournalWriter {
 public:
  ServiceJournalWriter() = default;
  ~ServiceJournalWriter();
  ServiceJournalWriter(const ServiceJournalWriter&) = delete;
  ServiceJournalWriter& operator=(const ServiceJournalWriter&) = delete;

  /// As AttackJournalWriter::Open (v3 header, `meta <base_seed> -1`,
  /// file + parent-directory fsync).
  Status Open(const std::string& path, int64_t resume_offset,
              uint64_t base_seed);

  bool is_open() const { return fd_ >= 0; }

  Status AppendChurn(const ServiceChurnRecord& record);
  Status AppendSubmit(const ServiceSubmitRecord& record);
  Status AppendComplete(const ServiceCompleteRecord& record);

 private:
  int fd_ = -1;
};

}  // namespace geattack

#endif  // GEATTACK_SRC_ATTACK_JOURNAL_H_
