#include "src/service/attack_service.h"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <utility>

#include "src/graph/subgraph.h"

namespace geattack {

namespace {

std::chrono::steady_clock::time_point AfterMs(
    std::chrono::steady_clock::time_point from, double ms) {
  return from + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                    std::chrono::duration<double, std::milli>(ms));
}

/// Unique churn endpoints, for ball-overlap checks.
std::vector<int64_t> ChurnEndpoints(const ChurnBatch& batch) {
  std::vector<int64_t> nodes;
  nodes.reserve(2 * (batch.added.size() + batch.removed.size()));
  for (const ChurnEdge& e : batch.added) {
    nodes.push_back(e.u);
    nodes.push_back(e.v);
  }
  for (const ChurnEdge& e : batch.removed) {
    nodes.push_back(e.u);
    nodes.push_back(e.v);
  }
  std::sort(nodes.begin(), nodes.end());
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  return nodes;
}

}  // namespace

uint64_t AttemptSeed(uint64_t base_seed, int64_t accepted_index, int attempt) {
  GEA_CHECK(attempt >= 0);
  const uint64_t first = TargetSeed(base_seed, accepted_index);
  if (attempt == 0) return first;
  return TargetSeed(first, attempt);
}

AttackService::AttackService(const AttackServiceConfig& config)
    : config_(config) {
  GEA_CHECK(config_.queue_capacity > 0);
  GEA_CHECK(config_.wave_size > 0);
  GEA_CHECK(config_.max_attempts >= 1);
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
}

AttackService::~AttackService() {
  Stop();
  if (dispatcher_.joinable()) dispatcher_.join();
}

Status AttackService::RegisterGraph(
    const std::string& version, const GraphData& data, const Gcn& model,
    std::shared_ptr<const TargetedAttack> attack) {
  if (version.empty())
    return Status::InvalidArgument("graph version name must be non-empty");
  if (attack == nullptr)
    return Status::InvalidArgument("graph registration needs an attack");
  // The epoch-0 snapshot (copies + normalization) is built outside mu_ so a
  // large registration does not stall Submit/Take on other versions.
  auto snap = MakeGraphSnapshot(version, data, model, std::move(attack));
  std::lock_guard<std::mutex> lock(mu_);
  if (graphs_.count(version) != 0)
    return Status::InvalidArgument("graph version '" + version +
                                   "' already registered (snapshots are "
                                   "immutable — churn it with UpdateGraph)");
  graphs_[version] = std::move(snap);
  return Status::Ok();
}

ChurnResult AttackService::UpdateGraph(const std::string& version,
                                       const ChurnBatch& batch) {
  // churn_mu_ serializes churners, so `prev` stays the current snapshot for
  // the whole build (the GEA_CHECK below re-asserts it).  mu_ is NOT held
  // while the next epoch is built — Submit/Take/dispatch stay live.
  std::lock_guard<std::mutex> churn_lock(churn_mu_);
  std::shared_ptr<const GraphSnapshot> prev;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return {Status::ResourceExhausted("service stopping"), -1, 0};
    // Configured durability that never opened is a setup error: Recover()
    // must run (and open the WAL) before the first churn.
    if (journaling()) GEA_CHECK(wal_.is_open());
    const auto it = graphs_.find(version);
    if (it == graphs_.end())
      return {Status::NotFound("graph version '" + version +
                               "' not registered"),
              -1, 0};
    prev = it->second;
  }

  // All-or-nothing admission: any malformed entry rejects the whole batch
  // before ANY state is touched (validation is pure).
  Status valid = ValidateChurnBatch(prev->data.graph, batch);
  if (!valid.ok()) return {std::move(valid), -1, 0};

  auto next = ApplyChurn(prev, batch);
  const std::vector<int64_t> endpoints = ChurnEndpoints(batch);

  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(version);
  GEA_CHECK(it != graphs_.end() && it->second == prev);

  // Ball-overlap invalidation: a QUEUED request re-pins to the new epoch
  // only when some churn endpoint lies inside its augmented ball — outside
  // it, the view, out-degrees, and candidate set are unchanged, so old- and
  // new-epoch picks are identical and the old pin stays correct.  Balls are
  // computed on `prev`'s graph for every queued entry, including ones still
  // pinned to older epochs: not having been bumped by the intervening
  // churns means their ball region is identical in every epoch since their
  // pin.  Running entries are never disturbed — they finish on their
  // dispatch snapshot.  Both walks read `prev`'s CSR, whose rows are
  // contiguous, rather than its Graph's adjacency sets.
  const CsrPattern& prev_adjacency = *prev->ctx.clean_csr.pattern();
  std::vector<int64_t> bumped;
  for (Entry* e : pending_) {
    if (e->request.graph != version) continue;
    bool overlap = true;
    if (config_.churn_ball_hops >= 0) {
      const std::vector<int64_t> candidates =
          DirectAddCandidates(prev_adjacency, e->request.target_node,
                              prev->data.labels, e->request.target_label);
      const std::vector<char> ball =
          AugmentedBallFlags(prev_adjacency, e->request.target_node,
                             config_.churn_ball_hops, candidates);
      overlap = false;
      for (const int64_t node : endpoints) {
        if (ball[ZU(node)] != 0) {
          overlap = true;
          break;
        }
      }
    }
    if (overlap) {
      e->snap = next;
      bumped.push_back(e->ticket);
    }
  }

  // WAL discipline: the churn (with its exact re-pinning decisions, which
  // recovery replays rather than re-derives) is durable BEFORE the new
  // epoch becomes visible.
  if (journaling()) {
    ServiceChurnRecord rec;
    rec.version = version;
    rec.epoch = next->epoch;
    rec.bumped_tickets = bumped;
    rec.added = ChurnEdgesOf(batch.added);
    rec.removed = ChurnEdgesOf(batch.removed);
    const Status appended = wal_.Append(std::move(rec));
    GEA_CHECK(appended.ok());
  }
  it->second = next;
  ++stats_.churn_batches;
  stats_.requeued_stale += static_cast<int64_t>(bumped.size());
  work_cv_.notify_all();
  return {Status::Ok(), next->epoch, static_cast<int64_t>(bumped.size())};
}

RecoveryReport AttackService::Recover() {
  RecoveryReport report;
  std::lock_guard<std::mutex> churn_lock(churn_mu_);
  std::lock_guard<std::mutex> lock(mu_);
  GEA_CHECK(!recovered_);
  GEA_CHECK(!stopping_);
  GEA_CHECK(next_ticket_ == 0 && entries_.empty());
  recovered_ = true;
  if (!journaling()) return report;

  const JournalLoadResult load =
      LoadJournal(config_.journal_path, config_.base_seed, /*count=*/-1);
  report.status = load.status;
  if (!load.status.ok()) {
    // Structured data loss: a complete record failed its CRC.  Everything
    // before it replays; the corrupt tail is truncated below and its work
    // recomputed.  Fail-soft with a warning, matching the driver.
    std::fprintf(stderr, "geattack: service WAL '%s': %s\n",
                 config_.journal_path.c_str(),
                 load.status.message().c_str());
  }

  // Pre-pass: every version in the WAL must have been re-registered (at
  // epoch 0) before Recover() — fail before mutating anything.
  for (const JournalRecord& record : load.records) {
    const std::string* version = nullptr;
    if (const auto* churn = std::get_if<ServiceChurnRecord>(&record))
      version = &churn->version;
    if (const auto* submit = std::get_if<ServiceSubmitRecord>(&record))
      version = &submit->version;
    if (version != nullptr && graphs_.count(*version) == 0) {
      report.status = Status::InvalidArgument(
          "service WAL references graph version '" + *version +
          "' — re-register every epoch-0 graph before Recover()");
      return report;
    }
  }

  // Epoch chains rebuild deterministically from the `g` records; submits
  // pin the snapshot their record names; completions replay their recorded
  // results.  No wall-clock is read from the journal (none is in it).
  std::map<std::string, std::map<int64_t, std::shared_ptr<const GraphSnapshot>>>
      epochs;
  for (const auto& kv : graphs_) {
    GEA_CHECK(kv.second->epoch == 0);
    epochs[kv.first][0] = kv.second;
  }
  for (const JournalRecord& record : load.records) {
    if (const auto* churn = std::get_if<ServiceChurnRecord>(&record)) {
      const ServiceChurnRecord& rec = *churn;
      const auto git = graphs_.find(rec.version);
      GEA_CHECK(git != graphs_.end());
      GEA_CHECK(rec.epoch == git->second->epoch + 1);
      ChurnBatch batch;
      for (const Edge& e : rec.added) batch.added.push_back({e.u, e.v, 1.0});
      for (const Edge& e : rec.removed)
        batch.removed.push_back({e.u, e.v, 1.0});
      auto next = ApplyChurn(git->second, batch);
      git->second = next;
      epochs[rec.version][rec.epoch] = next;
      for (const int64_t ticket : rec.bumped_tickets) {
        const auto eit = entries_.find(ticket);
        GEA_CHECK(eit != entries_.end());
        GEA_CHECK(eit->second->state == EntryState::kQueued);
        eit->second->snap = next;
      }
      ++stats_.churn_batches;
      stats_.requeued_stale +=
          static_cast<int64_t>(rec.bumped_tickets.size());
      ++report.churn_batches;
    } else if (const auto* submit =
                   std::get_if<ServiceSubmitRecord>(&record)) {
      const ServiceSubmitRecord& rec = *submit;
      GEA_CHECK(entries_.count(rec.ticket) == 0);
      const auto vit = epochs.find(rec.version);
      GEA_CHECK(vit != epochs.end());
      const auto sit = vit->second.find(rec.epoch);
      GEA_CHECK(sit != vit->second.end());
      auto entry = std::make_unique<Entry>();
      Entry* e = entry.get();
      e->ticket = rec.ticket;
      e->request.graph = rec.version;
      e->request.target_node = rec.target_node;
      e->request.target_label = rec.target_label;
      e->request.budget = rec.budget;
      e->request.priority = static_cast<int32_t>(rec.priority);
      // deadline_ms stays 0: wall-clock deadlines are never journaled
      // (no clock bits), so recovered work re-runs without one.
      e->snap = sit->second;
      e->accepted_index = rec.accepted_index;
      e->submitted_at = std::chrono::steady_clock::now();
      e->out.accepted_index = e->accepted_index;
      e->out.effective_budget = rec.budget;
      entries_.emplace(e->ticket, std::move(entry));
      pending_.push_back(e);
      next_ticket_ = std::max(next_ticket_, rec.ticket + 1);
      next_accepted_index_ =
          std::max(next_accepted_index_, rec.accepted_index + 1);
      ++stats_.submitted;
      ++stats_.accepted;
    } else {
      const auto& rec = std::get<ServiceCompleteRecord>(record);
      const auto eit = entries_.find(rec.ticket);
      GEA_CHECK(eit != entries_.end());
      Entry* e = eit->second.get();
      GEA_CHECK(e->state == EntryState::kQueued);
      GEA_CHECK(e->snap->epoch == rec.epoch);
      pending_.erase(std::find(pending_.begin(), pending_.end(), e));
      e->attempt = static_cast<int>(rec.attempts);
      e->out.attempts = e->attempt;
      e->out.seed = rec.attempts > 0
                        ? AttemptSeed(config_.base_seed, e->accepted_index,
                                      e->attempt - 1)
                        : 0;
      e->out.effective_budget = rec.effective_budget;
      Finalize(e, rec.result, /*from_replay=*/true);
      ++stats_.replayed_results;
      ++report.replayed_results;
      report.completed_tickets.push_back(rec.ticket);
    }
  }

  stats_.queue_depth = static_cast<int64_t>(pending_.size());
  stats_.max_queue_depth =
      std::max(stats_.max_queue_depth, stats_.queue_depth);
  report.pending = static_cast<int64_t>(pending_.size());
  report.pending_tickets.reserve(pending_.size());
  for (const Entry* e : pending_) report.pending_tickets.push_back(e->ticket);

  const Status opened = wal_.Open(config_.journal_path, load.valid_bytes,
                                 config_.base_seed, /*count=*/-1);
  // A WAL that cannot open means the recovery contract cannot be kept —
  // fail loudly rather than run undurably (same stance as the driver).
  GEA_CHECK(opened.ok());

  work_cv_.notify_all();
  done_cv_.notify_all();
  return report;
}

Admission AttackService::Submit(const AttackServiceRequest& request) {
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.submitted;
  if (stopping_) {
    ++stats_.rejected_queue_full;
    return {Status::ResourceExhausted("service stopping"), -1};
  }
  // Configured durability that never opened is a setup error: Recover()
  // must run (and open the WAL) before the first admission.
  if (journaling()) GEA_CHECK(wal_.is_open());
  const auto graph_it = graphs_.find(request.graph);
  if (graph_it == graphs_.end()) {
    ++stats_.rejected_invalid;
    return {Status::NotFound("graph version '" + request.graph +
                             "' not registered"),
            -1};
  }
  const std::shared_ptr<const GraphSnapshot>& snap = graph_it->second;
  const int64_t n = snap->data.num_nodes();
  if (request.target_node < 0 || request.target_node >= n ||
      request.target_label < -1 ||
      request.target_label >= snap->data.num_classes || request.budget < 0) {
    ++stats_.rejected_invalid;
    return {Status::InvalidArgument("bad request: node " +
                                    std::to_string(request.target_node) +
                                    " label " +
                                    std::to_string(request.target_label) +
                                    " budget " +
                                    std::to_string(request.budget)),
            -1};
  }
  if (!DeadlineFits(request.deadline_ms, std::chrono::steady_clock::now())) {
    ++stats_.rejected_invalid;
    return {Status::InvalidArgument(
                "deadline " + std::to_string(request.deadline_ms) +
                " ms is not a finite offset on the steady clock"),
            -1};
  }
  // Feasibility pre-check: a deadline below the floor cannot finish even on
  // an idle service — reject now instead of letting it occupy a queue slot
  // until it expires.  NO rng stream is consumed by a rejection: streams
  // are keyed by accepted_index, which only advances on acceptance.
  if (config_.min_feasible_deadline_ms > 0.0 && request.deadline_ms > 0.0 &&
      request.deadline_ms < config_.min_feasible_deadline_ms) {
    ++stats_.rejected_infeasible;
    return {Status::ResourceExhausted(
                "deadline " + std::to_string(request.deadline_ms) +
                " ms is below the feasibility floor"),
            -1};
  }
  if (static_cast<int64_t>(pending_.size()) >= config_.queue_capacity) {
    ++stats_.rejected_queue_full;
    return {Status::ResourceExhausted("submission queue full"), -1};
  }

  auto entry = std::make_unique<Entry>();
  Entry* e = entry.get();
  e->ticket = next_ticket_++;
  e->request = request;
  e->snap = snap;  // Pinned: churn after this point re-pins only on overlap.
  e->submitted_at = std::chrono::steady_clock::now();
  e->accepted_index = next_accepted_index_++;
  e->out.accepted_index = e->accepted_index;
  e->out.effective_budget = request.budget;
  if (request.deadline_ms > 0.0) {
    e->has_deadline = true;
    e->deadline = AfterMs(std::chrono::steady_clock::now(),
                          request.deadline_ms);
    // Armed before the entry becomes visible to the dispatcher (mu_ is
    // held), so the driver's workers only ever read it.
    e->token.SetDeadlineAfterMs(request.deadline_ms);
  }
  // Durable admission: the `s` record is fsync'd before the ticket is
  // returned, so an accepted ticket survives kill −9 from this line on.
  if (journaling()) {
    ServiceSubmitRecord rec;
    rec.ticket = e->ticket;
    rec.accepted_index = e->accepted_index;
    rec.epoch = e->snap->epoch;
    rec.target_node = request.target_node;
    rec.target_label = request.target_label;
    rec.budget = request.budget;
    rec.priority = request.priority;
    rec.version = request.graph;
    const Status appended = wal_.Append(std::move(rec));
    GEA_CHECK(appended.ok());
  }
  entries_.emplace(e->ticket, std::move(entry));
  pending_.push_back(e);
  ++stats_.accepted;
  stats_.queue_depth = static_cast<int64_t>(pending_.size());
  stats_.max_queue_depth = std::max(stats_.max_queue_depth,
                                    stats_.queue_depth);
  work_cv_.notify_one();
  return {Status::Ok(), e->ticket};
}

void AttackService::Cancel(int64_t ticket) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = entries_.find(ticket);
  if (it == entries_.end()) return;
  it->second->token.Cancel();
  // A queued entry finalizes at its next dispatch consideration (the
  // driver's pre-check turns it into kSkipped without consuming any
  // stream); wake the dispatcher so that happens promptly.
  work_cv_.notify_one();
}

ServiceResult AttackService::Take(int64_t ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  const auto it = entries_.find(ticket);
  if (it == entries_.end()) {
    ServiceResult unknown;
    unknown.result.status =
        Status::NotFound("ticket " + std::to_string(ticket) +
                         " was never issued or was already taken");
    return unknown;
  }
  Entry* e = it->second.get();
  done_cv_.wait(lock, [e] { return e->state == EntryState::kDone; });
  ServiceResult out = std::move(e->out);
  entries_.erase(ticket);
  return out;
}

void AttackService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return pending_.empty() && in_flight_ == 0; });
}

void AttackService::Stop() {
  std::lock_guard<std::mutex> lock(mu_);
  stopping_ = true;
  work_cv_.notify_all();
}

int64_t AttackService::CurrentEpoch(const std::string& version) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(version);
  return it == graphs_.end() ? -1 : it->second->epoch;
}

std::shared_ptr<const GraphSnapshot> AttackService::CurrentSnapshot(
    const std::string& version) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(version);
  return it == graphs_.end() ? nullptr : it->second;
}

ServiceStats AttackService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServiceStats snapshot = stats_;
  snapshot.queue_depth = static_cast<int64_t>(pending_.size());
  snapshot.in_flight = in_flight_;
  return snapshot;
}

void AttackService::CountOutcome(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      ++stats_.completed_ok;
      break;
    case StatusCode::kTimedOut:
      ++stats_.timed_out;
      break;
    case StatusCode::kSkipped:
      ++stats_.skipped;
      break;
    case StatusCode::kResourceExhausted:
      ++stats_.shed;
      break;
    default:
      ++stats_.failed;
      break;
  }
}

void AttackService::Finalize(Entry* e, AttackResult result, bool from_replay) {
  e->out.result = std::move(result);
  e->out.epoch = e->snap->epoch;
  e->out.latency_ms =
      from_replay ? 0.0
                  : std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - e->submitted_at)
                        .count();
  // The `t` record is the exactly-once commit point: once it is durable the
  // result replays on recovery; a crash before this append re-runs the
  // ticket on its recorded seed stream, computing the identical result.
  if (!from_replay && journaling()) {
    ServiceCompleteRecord rec;
    rec.ticket = e->ticket;
    rec.attempts = e->out.attempts;
    rec.effective_budget = e->out.effective_budget;
    rec.epoch = e->out.epoch;
    rec.result.status = e->out.result.status;
    rec.result.added_edges = e->out.result.added_edges;
    const Status appended = wal_.Append(std::move(rec));
    GEA_CHECK(appended.ok());
  }
  e->state = EntryState::kDone;
  CountOutcome(e->out.result.status.code());
}

void AttackService::DispatcherLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (pending_.empty()) {
      if (stopping_) break;
      work_cv_.wait(lock,
                    [this] { return stopping_ || !pending_.empty(); });
      continue;
    }
    if (stopping_) {
      // Queued work is finalized (never silently dropped) so every Take()
      // unblocks with a structured outcome.
      for (Entry* e : pending_) {
        AttackResult r;
        r.status = Status::ResourceExhausted("service stopping");
        Finalize(e, std::move(r));
      }
      pending_.clear();
      stats_.queue_depth = 0;
      done_cv_.notify_all();
      break;
    }

    const auto now = std::chrono::steady_clock::now();

    // Overload shedding: above the watermark, drop lowest-priority (then
    // latest-deadline, then youngest) requests down to the watermark.
    // Shedding is structured — the caller gets kResourceExhausted, and no
    // rng stream is touched, so the survivors' offline reference is simply
    // "the accepted set minus the shed tickets".
    if (config_.shed_watermark > 0) {
      bool any_shed = false;
      while (static_cast<int64_t>(pending_.size()) > config_.shed_watermark) {
        auto victim = std::min_element(
            pending_.begin(), pending_.end(), [](Entry* a, Entry* b) {
              if (a->request.priority != b->request.priority)
                return a->request.priority < b->request.priority;
              if (a->has_deadline != b->has_deadline)
                return !a->has_deadline;  // No deadline = most slack.
              if (a->has_deadline && a->deadline != b->deadline)
                return a->deadline > b->deadline;
              return a->accepted_index > b->accepted_index;
            });
        Entry* e = *victim;
        pending_.erase(victim);
        AttackResult r;
        r.status = Status::ResourceExhausted(
            "shed under overload (queue depth above watermark)");
        Finalize(e, std::move(r));
        any_shed = true;
      }
      if (any_shed) {
        stats_.queue_depth = static_cast<int64_t>(pending_.size());
        done_cv_.notify_all();
      }
    }
    if (pending_.empty()) continue;

    // Wave selection: expiring-soonest first (ties by admission order),
    // restricted to one snapshot EPOCH per wave (entries re-pinned by a
    // churn wait for a wave on the new epoch), skipping entries still in
    // retry backoff.  Reordering cannot change any result — every
    // request's draws come from its own AttemptSeed stream.
    std::vector<Entry*> eligible;
    eligible.reserve(pending_.size());
    auto earliest_backoff =
        std::chrono::steady_clock::time_point::max();
    for (Entry* e : pending_) {
      if (e->eligible_at > now) {
        earliest_backoff = std::min(earliest_backoff, e->eligible_at);
        continue;
      }
      eligible.push_back(e);
    }
    if (eligible.empty()) {
      // Everything queued is backing off: sleep until the earliest retry
      // becomes eligible (or new work / stop arrives).
      work_cv_.wait_until(lock, earliest_backoff);
      continue;
    }
    std::sort(eligible.begin(), eligible.end(), [](Entry* a, Entry* b) {
      if (a->has_deadline != b->has_deadline) return a->has_deadline;
      if (a->has_deadline && a->deadline != b->deadline)
        return a->deadline < b->deadline;
      return a->accepted_index < b->accepted_index;
    });
    // The local shared_ptr keeps the wave's snapshot alive across the
    // unlocked driver call even if every queued pin moves on mid-wave.
    const std::shared_ptr<const GraphSnapshot> wave_snap =
        eligible.front()->snap;
    std::vector<Entry*> wave;
    for (Entry* e : eligible) {
      if (e->snap != wave_snap) continue;
      wave.push_back(e);
      if (static_cast<int64_t>(wave.size()) >= config_.wave_size) break;
    }

    // Degradation: while the queue is past the watermark, waves run with a
    // capped budget and a tighter per-target deadline — everything still
    // admitted finishes smaller instead of nothing finishing.
    const bool degraded =
        config_.degrade_watermark > 0 &&
        static_cast<int64_t>(pending_.size()) > config_.degrade_watermark;
    if (degraded) ++stats_.degraded_waves;
    double wave_deadline_ms = config_.target_deadline_ms;
    if (degraded && config_.degraded_target_deadline_ms > 0.0)
      wave_deadline_ms = config_.degraded_target_deadline_ms;

    std::vector<AttackRequest> requests;
    std::vector<uint64_t> seeds;
    requests.reserve(wave.size());
    seeds.reserve(wave.size());
    for (Entry* e : wave) {
      pending_.erase(std::find(pending_.begin(), pending_.end(), e));
      e->state = EntryState::kRunning;
      int64_t budget = e->request.budget;
      if (degraded && config_.degraded_budget_cap > 0)
        budget = std::min(budget, config_.degraded_budget_cap);
      e->out.effective_budget = budget;
      AttackRequest r;
      r.target_node = e->request.target_node;
      r.target_label = e->request.target_label;
      r.budget = budget;
      r.cancel = &e->token;
      requests.push_back(r);
      seeds.push_back(
          AttemptSeed(config_.base_seed, e->accepted_index, e->attempt));
    }
    in_flight_ = static_cast<int64_t>(wave.size());
    stats_.queue_depth = static_cast<int64_t>(pending_.size());

    AttackDriverConfig driver_config;
    driver_config.num_threads = config_.num_threads;
    driver_config.target_deadline_ms = wave_deadline_ms;
    driver_config.request_seeds = std::move(seeds);

    lock.unlock();
    std::vector<AttackResult> results = RunMultiTargetAttack(
        wave_snap->ctx, *wave_snap->attack, requests, driver_config);
    lock.lock();

    const auto finished = std::chrono::steady_clock::now();
    for (size_t i = 0; i < wave.size(); ++i) {
      Entry* e = wave[i];
      AttackResult result = std::move(results[i]);
      const bool ran = result.status.code() != StatusCode::kSkipped;
      if (ran) {
        ++e->attempt;
        e->out.attempts = e->attempt;
        e->out.seed =
            AttemptSeed(config_.base_seed, e->accepted_index, e->attempt - 1);
      }
      bool retry = !stopping_ && IsRetryableStatus(result.status.code()) &&
                   e->attempt < config_.max_attempts && !e->token.Expired();
      // A retry re-enters the bounded queue like a submission: with no free
      // slot it is finalized with this attempt's failure instead.
      if (retry &&
          static_cast<int64_t>(pending_.size()) >= config_.queue_capacity) {
        retry = false;
        ++stats_.retries_refused;
      }
      if (retry) {
        // Back off exponentially: retry r waits base * 2^(r-1) after the
        // failed attempt.  The retry draws from AttemptSeed(base, index,
        // attempt) — a stream disjoint from every first-attempt stream.
        const double backoff =
            config_.retry_backoff_ms *
            static_cast<double>(int64_t{1} << (e->attempt - 1));
        e->eligible_at =
            backoff > 0.0 ? AfterMs(finished, backoff) : finished;
        e->state = EntryState::kQueued;
        pending_.push_back(e);
        ++stats_.retried;
      } else {
        Finalize(e, std::move(result));
      }
    }
    in_flight_ = 0;
    stats_.queue_depth = static_cast<int64_t>(pending_.size());
    stats_.max_queue_depth =
        std::max(stats_.max_queue_depth, stats_.queue_depth);
    done_cv_.notify_all();
  }
  done_cv_.notify_all();
}

}  // namespace geattack
