// Append-only, fsync'd write-ahead journal ("geajournal v3") for attack runs
// and the live attack service: one format, one writer, one loader.
//
// The meta line's count says which records a file may hold:
//
//   * DRIVER journals (`meta <base_seed> <num_requests>`, num_requests ≥ 0;
//     one per RunMultiTargetAttack call) hold `r` records only, one per
//     completed target.  A killed run resumes by replaying the journal and
//     attacking only the missing targets.  Because every target draws from
//     its own TargetSeed(base_seed, request_index) stream, the resumed
//     targets compute exactly what an uninterrupted run would have — final
//     results are byte-identical.
//   * SERVICE WALs (`meta <base_seed> -1`: streaming; one per
//     AttackService) hold `s`, `g` and `t` records only.  `s` makes an
//     admission durable before Submit returns its ticket, `g` logs each
//     churn batch (with the tickets it re-pinned), and `t` logs each
//     finalized ticket.  AttackService::Recover replays the WAL in file
//     order — rebuilding every epoch, completed result, and still-pending
//     ticket from journal records alone (no clock bits) — and re-runs only
//     the remainder.
//
// On-disk format (line-oriented text, reusing src/graph/io_text.h):
//
//   geajournal v3
//   meta <base_seed> <count>
//   r <request_index> <result>
//   s <ticket> <accepted_index> <epoch> <target> <label> <budget> <priority>
//     <name>                               (one line up to the name's bytes)
//   g <epoch> <n_bumped> [ticket]... <n_add> [u v]... <n_rem> [u v]...
//     <name>                               (one line up to the name's bytes)
//   t <ticket> <attempts> <effective_budget> <epoch> <result>
//
// where <result> is `<status_code> <num_edges> [u v]... <message>`, and a
// <message> or <name> is `<len>`, one newline, then <len> raw bytes, so
// replayed results carry byte-identical diagnostics.  Every record ends
// with the line `c <crc32> ;`: a CRC32 (polynomial 0xEDB88320) over the
// record bytes from the tag through the last raw byte, so a flipped byte
// inside an otherwise-parseable record — e.g. a silently corrupted edge
// endpoint that still range-checks — is detected instead of replayed as a
// wrong-but-plausible result.
//
// Records are durable when Append returns (write + fsync; opening a journal
// also fsyncs the PARENT DIRECTORY, so a crash right after creation cannot
// lose the directory entry itself).  A record counts once its trailer's
// final newline is on disk.  A torn tail (the record being written when the
// process died), or a record of the other file kind, parses as invalid: the
// replay ends there and the resuming writer truncates it away, silently —
// that is the expected kill artifact.  A *complete* record whose CRC
// mismatches is different: it is structured data loss, reported in the load
// result's status; replay stops before it and the resuming writer truncates
// from there, so the corrupt record is recomputed rather than trusted.
//
// A file whose first two lines are not exactly this run's header —
// another seed or count, a service WAL opened by the driver (or the
// reverse), or any other format version, the old v1 and v2 included — is
// foreign: nothing replays and the writer overwrites it.  A format change
// bumps the header version; there are no in-place migrations.

#ifndef GEATTACK_SRC_ATTACK_JOURNAL_H_
#define GEATTACK_SRC_ATTACK_JOURNAL_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/attack/attack.h"
#include "src/base/status.h"

namespace geattack {

/// One completed driver target (`r`): the whole AttackResult (added_edges
/// and status).
struct TargetRecord {
  int64_t request_index = -1;
  AttackResult result;
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

/// One journal record; the alternative is the record's tag.
using JournalRecord = std::variant<TargetRecord, ServiceSubmitRecord,
                                   ServiceChurnRecord, ServiceCompleteRecord>;

struct JournalLoadResult {
  /// Ok, or kDataLoss when a complete record failed its CRC check (the
  /// record and everything after it are dropped from `records`, and
  /// valid_bytes points before it so the corrupt tail is truncated on
  /// resume).  A torn tail is NOT data loss — it is the normal kill
  /// artifact.
  Status status;
  /// The header matched this run's (base_seed, count) byte for byte.
  bool header_ok = false;
  /// Byte offset just past the last complete record — the resume offset.
  /// 0 when header_ok is false (the file will be overwritten).
  int64_t valid_bytes = 0;
  /// Complete records in file order: only TargetRecords (indices validated
  /// against the count) under a count ≥ 0, only service records under -1.
  /// The driver takes the first record per index — the writer appends each
  /// target exactly once, so duplicates only arise from corruption.
  std::vector<JournalRecord> records;
};

/// Replays `path` against the header `meta <base_seed> <count>`: count is
/// the driver's num_requests, or -1 for a service WAL.  A missing,
/// unreadable or foreign file is a normal fresh start (header_ok = false,
/// no records).  Parsing stops at the first torn, malformed or other-kind
/// record; everything before it is returned.
JournalLoadResult LoadJournal(const std::string& path, uint64_t base_seed,
                              int64_t count);

/// Appends durable records; one instance per journal, writes serialized by
/// the owner (the driver's journal mutex, the service's mutex) so file
/// order equals completion / admission order.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter();
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Opens `path` truncated to `resume_offset` (a load's valid_bytes: any
  /// torn or corrupt tail past the last complete record is discarded);
  /// offset 0 starts fresh and writes the header for (base_seed, count).
  /// Durability: the file AND its parent directory are fsync'd before this
  /// returns, so a crash immediately after creation cannot lose the
  /// directory entry.
  Status Open(const std::string& path, int64_t resume_offset,
              uint64_t base_seed, int64_t count);

  bool is_open() const { return fd_ >= 0; }

  /// Appends one record of this file's kind (TargetRecord under a count
  /// ≥ 0, a service record under -1); durable (fsync'd) when this returns
  /// Ok.
  Status Append(const JournalRecord& record);

 private:
  int fd_ = -1;
  int64_t count_ = 0;
};

}  // namespace geattack

#endif  // GEATTACK_SRC_ATTACK_JOURNAL_H_
