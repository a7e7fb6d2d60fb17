// Schedule trace: renders the paper's Fig. 1 from the *executing* engine.
//
// A tiny quasi-1-D domain is swept once; every window the engine hands to
// a thread is recorded in arrival order.  The printed matrix has one row
// per pipeline thread and one column per observed event: the entry is the
// block index the thread updated (at its time level).  The staircase —
// thread i trailing thread i-1 by at least d_l blocks, by at most d_u —
// is exactly Fig. 1/Fig. 2 of the paper.
#include <atomic>
#include <cstdio>
#include <mutex>
#include <vector>

#include "core/engine.hpp"
#include "util/args.hpp"

namespace {

int run(const tb::util::Args& args) {
  tb::core::PipelineConfig cfg;
  cfg.teams = args.get_int("teams", 1, "thread teams");
  cfg.team_size = args.get_int("threads", 3, "threads per team");
  cfg.steps_per_thread = args.get_int("T", 1, "updates per thread and block");
  cfg.dl = args.get_int("dl", 1, "minimum thread distance");
  cfg.du = args.get_int("du", 2, "maximum thread distance");
  cfg.dt = args.get_int("dt", 0, "team delay");
  const int blocks = args.get_int("blocks", 12, "blocks along x");
  const int max_events = args.get_int("events", 36, "event columns printed");
  args.finish();

  const int bx = 4;
  cfg.block = {bx, 64, 64};  // quasi-1-D: one block column in y and z
  const int nx = blocks * bx + 2;

  tb::core::PipelineEngine engine(
      cfg, tb::core::BlockPlan(
               cfg.block, tb::core::interior_clips(
                              nx, 8, 8, cfg.levels_per_sweep())));

  struct Event {
    int thread;
    int level;
    int block;
  };
  std::vector<Event> events;
  std::mutex m;
  engine.run_sweep(true, [&](int thread, int level,
                             const tb::core::Box& w) {
    const std::scoped_lock lock(m);
    events.push_back({thread, level, (w.lo[0] - 1 + level - 1) / bx});
  });

  const int threads = cfg.total_threads();
  std::printf(
      "pipeline schedule, %s\n"
      "rows: threads (t1 = front); columns: events in arrival order;\n"
      "cell: block index being updated (. = idle)\n\n",
      cfg.describe().c_str());

  std::vector<std::vector<std::string>> rows(
      static_cast<std::size_t>(threads));
  for (std::size_t e = 0; e < events.size(); ++e) {
    for (int p = 0; p < threads; ++p) {
      char buf[8];
      if (events[e].thread == p) {
        std::snprintf(buf, sizeof buf, "%2d", events[e].block);
      } else {
        std::snprintf(buf, sizeof buf, " .");
      }
      rows[static_cast<std::size_t>(p)].emplace_back(buf);
    }
  }
  const std::size_t cols =
      std::min(events.size(), static_cast<std::size_t>(max_events));
  for (int p = 0; p < threads; ++p) {
    std::printf("t%-2d |", p + 1);
    for (std::size_t e = 0; e < cols; ++e)
      std::printf("%s", rows[static_cast<std::size_t>(p)][e].c_str());
    std::printf("\n");
  }

  // Verify the Fig. 2 invariants on the trace: when thread p starts block
  // b, thread p-1 has completed at least b + dl(p) blocks.
  std::vector<int> completed(static_cast<std::size_t>(threads), 0);
  bool ok = true;
  const auto bounds = tb::core::make_distance_bounds(
      cfg.teams, cfg.team_size, cfg.dl, cfg.du, cfg.dt);
  for (const Event& ev : events) {
    if (ev.level % cfg.steps_per_thread == 1 || cfg.steps_per_thread == 1) {
      const auto& b = bounds[static_cast<std::size_t>(ev.thread)];
      if (b.check_lower &&
          completed[static_cast<std::size_t>(ev.thread - 1)] <
              ev.block + static_cast<int>(b.dl) &&
          completed[static_cast<std::size_t>(ev.thread - 1)] < blocks) {
        ok = false;
      }
    }
    if (ev.level == ev.thread * cfg.steps_per_thread + cfg.steps_per_thread)
      completed[static_cast<std::size_t>(ev.thread)] = ev.block + 1;
  }
  std::printf("\ndistance conditions held throughout: %s\n",
              ok ? "yes" : "NO (bug!)");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) { return tb::util::run_main(argc, argv, run); }
