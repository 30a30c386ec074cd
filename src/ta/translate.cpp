#include "ta/translate.hpp"

#include <algorithm>
#include <stdexcept>

namespace fppn::ta {

TranslationResult translate_schedule(const TaskGraph& tg,
                                     const StaticSchedule& schedule,
                                     const std::vector<JobId>& skipped) {
  TranslationResult out;
  for (std::size_t i = 0; i < tg.job_count(); ++i) {
    if (!schedule.is_placed(JobId(i))) {
      throw std::invalid_argument("ta translation: unplaced job '" +
                                  tg.job(JobId(i)).name + "'");
    }
    out.network.set_var("done_" + std::to_string(i), 0);
    out.network.set_var("skip_" + std::to_string(i), 0);
  }
  for (const JobId s : skipped) {
    out.network.set_var("skip_" + std::to_string(s.value()), 1);
  }

  const auto order = schedule.per_processor_order();
  for (std::size_t m = 0; m < order.size(); ++m) {
    TimedAutomaton a("sched_M" + std::to_string(m + 1));
    a.add_clock("g");  // absolute frame time, never reset
    a.add_clock("x");  // per-execution clock
    // Locations: Wait_0, Exec_0, Wait_1, Exec_1, ..., Done.
    std::vector<std::size_t> wait_loc;
    std::vector<std::size_t> exec_loc;
    for (const JobId id : order[m]) {
      const Job& job = tg.job(id);
      wait_loc.push_back(a.add_location(TaLocation{"Wait_" + job.name, {}, false}));
      exec_loc.push_back(a.add_location(
          TaLocation{"Exec_" + job.name,
                     {ClockBound{"x", job.wcet.value()}},
                     false}));
    }
    const std::size_t done_loc = a.add_location(TaLocation{"Done", {}, false});

    for (std::size_t pos = 0; pos < order[m].size(); ++pos) {
      const JobId id = order[m][pos];
      const Job& job = tg.job(id);
      const std::size_t next_wait =
          pos + 1 < order[m].size() ? wait_loc[pos + 1] : done_loc;
      const std::string done_var = "done_" + std::to_string(id.value());
      const std::string skip_var = "skip_" + std::to_string(id.value());

      // Data guard: all predecessors done (a skipped predecessor is done
      // once it took its own skip transition).
      std::vector<std::string> pred_vars;
      for (const JobId p : tg.predecessors(id)) {
        pred_vars.push_back("done_" + std::to_string(p.value()));
      }
      const auto preds_done = [pred_vars](const VarEnv& env) {
        for (const std::string& v : pred_vars) {
          if (env.at(v) == 0) {
            return false;
          }
        }
        return true;
      };

      // Wait -> Exec: invocation (g >= A) + precedence + not skipped.
      TaTransition start;
      start.from = wait_loc[pos];
      start.to = exec_loc[pos];
      start.lower_bounds = {ClockBound{"g", (job.arrival - Time()).value()}};
      start.guard = [preds_done, skip_var](const VarEnv& env) {
        return env.at(skip_var) == 0 && preds_done(env);
      };
      start.resets = {"x"};
      start.label = "start " + job.name;
      a.add_transition(start);
      out.start_labels.emplace(start.label, id);

      // Exec -> next: completion after exactly C (invariant + lower bound).
      TaTransition end;
      end.from = exec_loc[pos];
      end.to = next_wait;
      end.lower_bounds = {ClockBound{"x", job.wcet.value()}};
      end.update = [done_var](VarEnv& env) { env[done_var] = 1; };
      end.label = "end " + job.name;
      a.add_transition(end);
      out.end_labels.emplace(end.label, id);

      // Wait -> next: a skipped job completes instantly once its arrival
      // boundary has passed and its predecessors are done — the policy's
      // false-mark, which both runtimes take only after the predecessors.
      TaTransition skip;
      skip.from = wait_loc[pos];
      skip.to = next_wait;
      skip.lower_bounds = {ClockBound{"g", (job.arrival - Time()).value()}};
      skip.guard = [preds_done, skip_var](const VarEnv& env) {
        return env.at(skip_var) == 1 && preds_done(env);
      };
      skip.update = [done_var](VarEnv& env) { env[done_var] = 1; };
      skip.label = "skip " + tg.job(id).name;
      a.add_transition(skip);
    }
    out.network.add(std::move(a));
  }
  return out;
}

TaJobTimes run_schedule_oracle(const TaskGraph& tg, const StaticSchedule& schedule,
                               const std::vector<JobId>& skipped) {
  TranslationResult tr = translate_schedule(tg, schedule, skipped);
  Duration h = tg.hyperperiod();
  if (h.is_zero()) {
    // Synthetic graph without a frame period: any horizon covering every
    // deadline plus all work suffices (the network quiesces on its own).
    Time latest;
    for (const Job& j : tg.jobs()) {
      latest = std::max(latest, j.deadline);
    }
    h = (latest - Time()) + tg.total_work();
  }
  const TaRunResult run = tr.network.run(Time() + h + h);
  TaJobTimes times;
  for (const TaEvent& e : run.events) {
    if (const auto it = tr.start_labels.find(e.label); it != tr.start_labels.end()) {
      times.start[it->second] = e.time;
    } else if (const auto it2 = tr.end_labels.find(e.label);
               it2 != tr.end_labels.end()) {
      times.end[it2->second] = e.time;
    }
  }
  return times;
}

}  // namespace fppn::ta
