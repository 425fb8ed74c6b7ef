// Status and cooperative-cancellation primitives for fault-contained runs.
//
// Design rule (see CONTRIBUTING.md "Status vs GEA_CHECK"): GEA_CHECK stays
// for programmer errors — invariants the library itself must uphold.
// Everything the outside world can get wrong — malformed input files,
// out-of-range requests, pathological numerics, deadlines — reports through
// Status, so one bad target or file yields a diagnosable per-item failure
// instead of aborting a 10k-target driver run.

#ifndef GEATTACK_SRC_BASE_STATUS_H_
#define GEATTACK_SRC_BASE_STATUS_H_

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>

namespace geattack {

/// Stable outcome codes.  The numeric values are part of the attack-journal
/// on-disk format ("geajournal v3") — append new codes, never renumber.
enum class StatusCode : int64_t {
  kOk = 0,
  kError = 1,            ///< Exception or non-finite blowup inside a task.
  kTimedOut = 2,         ///< Deadline/cancellation hit; result may be partial.
  kSkipped = 3,          ///< Never attempted (e.g. run deadline hit first).
  kInvalidArgument = 4,  ///< Request rejected by validation.
  kDataLoss = 5,         ///< Malformed or truncated input bytes.
  kResourceExhausted = 6,  ///< Rejected or shed by service overload policy.
  kNotFound = 7,           ///< Named resource (graph version) not registered.
};

/// Short stable name of a code ("ok", "error", "timed_out", ...).
const char* StatusCodeName(StatusCode code);

/// Retryability classification used by the attack service's retry policy.
/// Only kError and kTimedOut are retryable: they can be transient (a
/// numeric blowup from a racing cosmic-ray of a bug, a deadline that was
/// too tight under momentary load), and a retry draws from a *distinct*
/// documented seed stream so the re-run is still deterministic.  Everything
/// else is final by construction: kInvalidArgument and kNotFound will fail
/// identically forever, kResourceExhausted must go back through admission
/// (the caller decides whether the work is still worth queueing), kSkipped
/// means the deadline is already gone, and kDataLoss needs repair, not
/// repetition.
bool IsRetryableStatus(StatusCode code);

/// A lightweight success-or-diagnostic value.  Default-constructed is ok;
/// failures carry a code plus a human-readable message.  Convertible to
/// bool in boolean contexts (`if (status)`, `a && b`) so call sites that
/// only care about success read naturally.
class Status {
 public:
  Status() = default;

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }
  bool ok() const { return code_ == StatusCode::kOk; }
  explicit operator bool() const { return ok(); }

  static Status Ok() { return Status(); }
  static Status Error(std::string message) {
    return Status(StatusCode::kError, std::move(message));
  }
  static Status TimedOut(std::string message) {
    return Status(StatusCode::kTimedOut, std::move(message));
  }
  static Status Skipped(std::string message) {
    return Status(StatusCode::kSkipped, std::move(message));
  }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status DataLoss(std::string message) {
    return Status(StatusCode::kDataLoss, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  /// Rebuilds a status from its stable code (journal replay).
  static Status FromCode(StatusCode code, std::string message) {
    return code == StatusCode::kOk ? Status()
                                   : Status(code, std::move(message));
  }

  /// "ok", or "<code-name>: <message>".
  std::string ToString() const;

 private:
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Thrown by the finite-score tripwires in the attack pick loops.  The
/// multi-target driver catches it (with every other exception) and turns
/// the offending target into a kError result while the other targets'
/// picks stay bit-identical.
class NonFiniteError : public std::runtime_error {
 public:
  explicit NonFiniteError(const std::string& what)
      : std::runtime_error(what) {}
};

/// Returns `v` unchanged when finite; throws NonFiniteError otherwise.
/// Every score an attack loop would compare for a committed pick runs
/// through this.  NaN never wins a `<`/`>` comparison, so without the
/// tripwire a poisoned gradient silently yields an *empty* attack; with it
/// the target fails loudly and in isolation.  Finite runs take the same
/// branch as before the tripwire existed, so picks are unchanged.
inline double CheckFiniteScore(double v, const char* what) {
  if (!std::isfinite(v))
    throw NonFiniteError(std::string("non-finite ") + what);
  return v;
}

/// Whether a relative deadline of `ms` milliseconds can be armed at `now`:
/// <= 0 is "none"; otherwise it must be finite and land on the steady
/// clock, whose double-to-tick cast overflows past its range.  The second
/// of slack covers that rounding and the moment between this check and
/// arming the token.  Callers reject a deadline that does not fit before
/// arming anything (CancellationToken::SetDeadlineAfterMs does not check).
bool DeadlineFits(double ms, std::chrono::steady_clock::time_point now);

/// Cooperative cancellation: a steady-clock deadline plus a manual cancel
/// flag, optionally chained to a parent token (the driver chains per-target
/// tokens to the whole-run token).  Attack loops poll Expired() at
/// greedy-round / inner-mask-step granularity — no signals, no thread
/// interruption, and the poll reads no attack state, so *what* a target
/// computes when it does not expire is bit-identical with or without a
/// token attached.
///
/// Thread-safety: Cancel()/Expired() are safe from any thread;
/// SetDeadlineAfterMs must happen-before any concurrent Expired() (the
/// driver arms tokens before handing them to attack code).
class CancellationToken {
 public:
  CancellationToken() = default;
  /// Chains to up to two parents: the driver uses one slot for the
  /// whole-run token and the other for a caller-provided per-request token
  /// (the attack service arms one per submission with the request's
  /// absolute deadline), so either expiring cancels the target.
  explicit CancellationToken(const CancellationToken* parent,
                             const CancellationToken* parent2 = nullptr)
      : parent_(parent), parent2_(parent2) {}
  CancellationToken(const CancellationToken&) = delete;
  CancellationToken& operator=(const CancellationToken&) = delete;

  /// Arms the deadline `ms` milliseconds from now; ms <= 0 disarms.  `ms`
  /// must satisfy DeadlineFits.
  void SetDeadlineAfterMs(double ms) {
    if (ms <= 0.0) {
      armed_ = false;
      return;
    }
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
    armed_ = true;
  }

  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// True once Cancel() was called, the armed deadline passed, or any
  /// parent expired.
  bool Expired() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (armed_ && std::chrono::steady_clock::now() >= deadline_) return true;
    if (parent_ != nullptr && parent_->Expired()) return true;
    return parent2_ != nullptr && parent2_->Expired();
  }

 private:
  const CancellationToken* parent_ = nullptr;
  const CancellationToken* parent2_ = nullptr;
  bool armed_ = false;
  std::chrono::steady_clock::time_point deadline_{};
  std::atomic<bool> cancelled_{false};
};

}  // namespace geattack

#endif  // GEATTACK_SRC_BASE_STATUS_H_
