#include "src/attack/driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <utility>

#include "src/attack/journal.h"

#ifdef _OPENMP
#include <omp.h>
#endif

namespace geattack {

uint64_t TargetSeed(uint64_t base_seed, int64_t target_index) {
  // SplitMix64 finalizer over the combined state.  The golden-ratio
  // increment separates consecutive target indices far apart in state
  // space; the two xor-shift-multiply rounds mix every input bit into
  // every output bit, so per-target engines (mt19937_64 seeded with this)
  // see unrelated streams.
  uint64_t z = base_seed + 0x9E3779B97F4A7C15ULL *
                               (static_cast<uint64_t>(target_index) + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

void WarmSharedCaches(const AttackContext& ctx) {
  // Build the lazily-initialized shared structures every attacker touches
  // before workers spawn.  The once_flags make concurrent first use safe
  // anyway; warming just keeps the folds off the critical path of one
  // unlucky worker.
  CachedForward(ctx);
  if (!ctx.clean_csr.empty()) ctx.clean_csr.pattern()->Transpose();
  if (!ctx.clean_norm_csr.empty()) ctx.clean_norm_csr.pattern()->Transpose();
}

/// Empty string when `request` is well-formed; the documented rejection
/// message otherwise (the request becomes a kInvalidArgument result
/// without running — no UB, no abort).
std::string ValidateRequest(const AttackContext& ctx,
                            const AttackRequest& request) {
  const int64_t n = ctx.data->num_nodes();
  if (request.target_node < 0 || request.target_node >= n)
    return "target_node " + std::to_string(request.target_node) +
           " out of range [0, " + std::to_string(n) + ")";
  if (request.target_label < -1 ||
      request.target_label >= ctx.data->num_classes)
    return "target_label " + std::to_string(request.target_label) +
           " out of range [-1, " + std::to_string(ctx.data->num_classes) +
           ")";
  if (request.budget < 0)
    return "budget " + std::to_string(request.budget) + " is negative";
  return std::string();
}

/// Whether a replayed journal record's edges are in range.  A
/// corrupt-but-parseable record (out-of-range endpoints) is not replayed —
/// the target is simply recomputed.
bool JournaledEdgesValid(const AttackContext& ctx,
                         const AttackResult& result) {
  const int64_t n = ctx.data->num_nodes();
  for (const Edge& e : result.added_edges)
    if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n || e.u == e.v)
      return false;
  return true;
}

}  // namespace

Status CheckDeadlines(double run_deadline_ms, double target_deadline_ms) {
  const auto unfit = [](const char* field, double ms) {
    return Status::InvalidArgument(std::string(field) + " " +
                                   std::to_string(ms) +
                                   " is not a finite offset on the steady "
                                   "clock");
  };
  const auto now = std::chrono::steady_clock::now();
  if (!DeadlineFits(run_deadline_ms, now))
    return unfit("run_deadline_ms", run_deadline_ms);
  if (!DeadlineFits(target_deadline_ms, now))
    return unfit("target_deadline_ms", target_deadline_ms);
  return Status::Ok();
}

std::vector<AttackResult> RunMultiTargetAttack(
    const AttackContext& ctx, const TargetedAttack& attack,
    const std::vector<AttackRequest>& requests,
    const AttackDriverConfig& config) {
  std::vector<AttackResult> results(requests.size());
  if (requests.empty()) return results;
  GEA_CHECK(ctx.data != nullptr);
  GEA_CHECK(config.request_seeds.empty() ||
            config.request_seeds.size() == requests.size());
  // The journal's resume contract binds results to TargetSeed(base_seed, i)
  // streams; explicit per-request seeds would silently break it.
  GEA_CHECK(config.request_seeds.empty() || config.journal_path.empty());
  const int64_t num_requests = static_cast<int64_t>(requests.size());

  const Status deadlines =
      CheckDeadlines(config.run_deadline_ms, config.target_deadline_ms);
  if (!deadlines.ok()) {
    for (AttackResult& result : results) result.status = deadlines;
    return results;
  }

  // Malformed requests become kInvalidArgument results without running —
  // they are never scheduled and never journaled (revalidated on resume).
  std::vector<char> done(requests.size(), 0);
  for (int64_t i = 0; i < num_requests; ++i) {
    const std::string error = ValidateRequest(ctx, requests[ZU(i)]);
    if (!error.empty()) {
      results[ZU(i)].status = Status::InvalidArgument(error);
      done[ZU(i)] = 1;
    }
  }

  // Checkpoint/resume: replay the journal's completed targets, then open
  // the writer positioned past the last complete record (discarding any
  // torn tail; a foreign file loads with valid_bytes 0 and is overwritten).
  JournalWriter journal;
  std::mutex journal_mutex;
  if (!config.journal_path.empty()) {
    const JournalLoadResult prior =
        LoadJournal(config.journal_path, config.base_seed, num_requests);
    // Surfaced corruption (a complete record whose CRC mismatched) is
    // recoverable here — the dropped targets are simply recomputed — but it
    // means the storage flipped bits, which the operator should know about.
    if (!prior.status.ok())
      std::fprintf(stderr, "geattack: %s\n", prior.status.ToString().c_str());
    for (const JournalRecord& record : prior.records) {
      const TargetRecord& target = std::get<TargetRecord>(record);
      const int64_t i = target.request_index;
      if (done[ZU(i)] || !JournaledEdgesValid(ctx, target.result)) continue;
      results[ZU(i)] = target.result;
      done[ZU(i)] = 1;
    }
    const Status opened =
        journal.Open(config.journal_path, prior.valid_bytes, config.base_seed,
                     num_requests);
    // A configured journal that cannot be written is a setup error, not a
    // per-target fault: fail loudly instead of silently dropping durability.
    if (!opened.ok()) {
      std::fprintf(stderr, "geattack: %s\n", opened.ToString().c_str());
      GEA_CHECK(opened.ok());
    }
  }

  // One task per still-pending request.  Each keeps the stream of its
  // ORIGINAL request index, so thread count and resume point are invisible
  // in the results.
  std::vector<int64_t> pending;
  pending.reserve(requests.size());
  for (int64_t i = 0; i < num_requests; ++i)
    if (!done[ZU(i)]) pending.push_back(i);

  // Whole-run deadline, armed now; per-target tokens chain to it so an
  // expired run also cancels in-flight targets at their next poll.
  CancellationToken run_token;
  run_token.SetDeadlineAfterMs(config.run_deadline_ms);

  const auto seed_of = [&](int64_t i) {
    return config.request_seeds.empty() ? TargetSeed(config.base_seed, i)
                                        : config.request_seeds[ZU(i)];
  };
  auto run_one = [&](int64_t i, const CancellationToken* token) {
    AttackRequest request = requests[ZU(i)];
    request.cancel = token;
    Rng rng(seed_of(i));
    return attack.Attack(ctx, request, &rng);
  };
  // A per-task fault (exception or non-finite blowup) lands only on its own
  // target: the result is replaced wholesale, and since every target runs
  // from its own TargetSeed stream, no survivor observed any state the
  // faulty task touched.
  auto fail = [&](int64_t i, const std::string& what) {
    results[ZU(i)] = AttackResult();
    results[ZU(i)].status = Status::Error(
        "target " + std::to_string(requests[ZU(i)].target_node) + ": " + what);
  };
  auto run_isolated = [&](int64_t i, const CancellationToken* token) {
    try {
      results[ZU(i)] = run_one(i, token);
    } catch (const std::exception& e) {
      fail(i, e.what());
    } catch (...) {
      fail(i, "unknown exception");
    }
  };

  auto run_task = [&](int64_t i) {
    const CancellationToken* caller = requests[ZU(i)].cancel;
    if (run_token.Expired()) {
      // Task started after the run deadline: nothing was computed, so the
      // target is skipped (and deliberately NOT journaled — a resumed run
      // with more time should attack it).
      results[ZU(i)].status =
          Status::Skipped("run deadline exceeded before target started");
    } else if (caller != nullptr && caller->Expired()) {
      // The caller-provided token (e.g. the attack service's per-request
      // absolute deadline) already expired: skip HERE, before any Rng is
      // constructed or any attack state is touched, so the doomed request
      // consumes nothing and appending it to a run leaves every survivor's
      // stream — hence picks — untouched.
      results[ZU(i)].status =
          Status::Skipped("deadline expired before target started");
    } else {
      CancellationToken token(&run_token, caller);
      token.SetDeadlineAfterMs(config.target_deadline_ms);
      run_isolated(i, &token);
    }
    if (journal.is_open() &&
        results[ZU(i)].status.code() != StatusCode::kSkipped) {
      std::lock_guard<std::mutex> lock(journal_mutex);
      const Status appended = journal.Append(TargetRecord{i, results[ZU(i)]});
      GEA_CHECK(appended.ok());
    }
  };

  const int64_t num_tasks = static_cast<int64_t>(pending.size());
  const int threads = static_cast<int>(
      std::min<int64_t>(std::max(config.num_threads, 1), num_tasks));
  if (threads <= 1) {
    for (int64_t i : pending) run_task(i);
    return results;
  }

  WarmSharedCaches(ctx);
#ifdef _OPENMP
  // Split the machine's OpenMP budget across the workers so the row-parallel
  // kernels inside each attack don't oversubscribe cores threads-fold.  The
  // ICV is per-thread, and OpenMP team size never affects kernel *values*
  // (rows are whole-row assigned, reductions never split), so this is a
  // pure scheduling knob.
  const int omp_budget = std::max(1, omp_get_max_threads() / threads);
#endif
  // One shared queue in caller order: each idle worker takes the next
  // target, so a caller that lists its costliest targets first gets list
  // scheduling.  Seeds are bound to request indices, so the schedule never
  // changes a result.
  std::atomic<int64_t> next_task{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&] {
#ifdef _OPENMP
      omp_set_num_threads(omp_budget);
#endif
      for (int64_t t = next_task++; t < num_tasks; t = next_task++)
        run_task(pending[ZU(t)]);
    });
  }
  for (std::thread& t : workers) t.join();
  return results;
}

}  // namespace geattack
