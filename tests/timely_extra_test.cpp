// Additional engine tests: batching, throttled outputs, routing pacts,
// frontier monotonicity, channel registry, and input-handle misuse.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <set>
#include <vector>

#include "common/hash.hpp"
#include "timely/timely.hpp"

namespace timely {
namespace {

using megaphone::HashMix64;

TEST(TimelyExtra, LargeBatchesFlushCompletely) {
  // More records per epoch than the output batch size (1024) exercises
  // mid-logic buffer flushes.
  std::atomic<uint64_t> count{0};
  Execute(Config{2}, [&](Worker& w) {
    auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      auto ex = Exchange(stream, [](const uint64_t& x) { return x; });
      Sink(ex, [&](const uint64_t&, std::vector<uint64_t>& d) {
        count += d.size();
      });
      return in;
    });
    std::vector<uint64_t> batch;
    for (uint64_t i = 0; i < 10000; ++i) batch.push_back(i);
    input->SendBatch(std::move(batch));
    input->Close();
  });
  EXPECT_EQ(count.load(), 20000u);
}

TEST(TimelyExtra, RoutePactDeliversToNamedWorker) {
  const uint32_t workers = 4;
  std::mutex mu;
  std::map<uint32_t, std::set<uint64_t>> seen;
  Execute(Config{workers}, [&](Worker& w) {
    auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      OperatorBuilder<uint64_t> b(s, "RouteSink");
      auto* h = b.AddInput(stream, Pact<uint64_t>::Route([](const uint64_t& x) {
        return static_cast<uint32_t>(x % 3);  // explicit target worker
      }));
      uint32_t me = s.worker();
      b.Build([h, me, &mu, &seen](OpCtx<uint64_t>&) {
        h->ForEach([&](const uint64_t&, std::vector<uint64_t>& d) {
          std::lock_guard<std::mutex> lock(mu);
          for (auto x : d) seen[me].insert(x);
        });
      });
      return in;
    });
    if (w.index() == 0) {
      for (uint64_t i = 0; i < 30; ++i) input->Send(i);
    }
    input->Close();
  });
  for (auto& [worker, xs] : seen) {
    for (uint64_t x : xs) EXPECT_EQ(x % 3, worker);
  }
  EXPECT_EQ(seen[0].size() + seen[1].size() + seen[2].size(), 30u);
  EXPECT_TRUE(seen[3].empty());
}

TEST(TimelyExtra, FrontiersAreMonotone) {
  // Property: the frontier an operator observes never regresses.
  std::atomic<bool> regressed{false};
  Execute(Config{4}, [&](Worker& w) {
    auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      auto ex = Exchange(stream, [](const uint64_t& x) { return x; });
      OperatorBuilder<uint64_t> b(s, "MonotoneCheck");
      auto* h = b.AddInput(ex, Pact<uint64_t>::Pipeline());
      auto last = std::make_shared<Antichain<uint64_t>>();
      b.Build([h, last, &regressed](OpCtx<uint64_t>&) {
        h->ForEach([](const uint64_t&, std::vector<uint64_t>&) {});
        const auto& f = h->frontier();
        // Monotone advance: every element of the new frontier must be in
        // advance of the previous frontier.
        if (!last->empty()) {
          for (const auto& n : f.elements()) {
            if (!last->LessEqual(n)) regressed = true;
          }
        }
        *last = f;
      });
      return in;
    });
    for (uint64_t e = 0; e < 50; ++e) {
      input->Send(e * 4 + w.index());
      input->AdvanceTo(e + 1);
      w.Step();
    }
    input->Close();
  });
  EXPECT_FALSE(regressed.load());
}

TEST(TimelyExtra, AdvanceToSameEpochIsNoOp) {
  Execute(Config{1}, [&](Worker& w) {
    auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      Sink(stream, [](const uint64_t&, std::vector<uint64_t>&) {});
      return in;
    });
    input->AdvanceTo(5);
    input->AdvanceTo(5);  // no-op
    EXPECT_EQ(input->epoch(), 5u);
    input->Close();
  });
}

TEST(TimelyExtra, SendOnClosedInputAborts) {
  EXPECT_DEATH(
      {
        Execute(Config{1}, [&](Worker& w) {
          auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
            auto [in, stream] = NewInput<uint64_t>(s);
            Sink(stream, [](const uint64_t&, std::vector<uint64_t>&) {});
            return in;
          });
          input->Close();
          input->Send(1);
        });
      },
      "closed input");
}

TEST(TimelyExtra, BackwardsAdvanceAborts) {
  EXPECT_DEATH(
      {
        Execute(Config{1}, [&](Worker& w) {
          auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
            auto [in, stream] = NewInput<uint64_t>(s);
            Sink(stream, [](const uint64_t&, std::vector<uint64_t>&) {});
            return in;
          });
          input->AdvanceTo(10);
          input->AdvanceTo(4);
        });
      },
      "monotone");
}

TEST(TimelyExtra, DeepPipelineAcrossWorkers) {
  // A ten-stage pipeline alternating maps and exchanges.
  std::atomic<uint64_t> sum{0};
  constexpr uint64_t kRecords = 1000;
  Execute(Config{4}, [&](Worker& w) {
    auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      Stream<uint64_t, uint64_t> cur = stream;
      for (int stage = 0; stage < 5; ++stage) {
        cur = Map(cur, [](uint64_t x) { return x + 1; });
        cur = Exchange(cur, [stage](const uint64_t& x) {
          return HashMix64(x + stage);
        });
      }
      Sink(cur, [&](const uint64_t&, std::vector<uint64_t>& d) {
        for (auto x : d) sum += x;
      });
      return in;
    });
    for (uint64_t i = w.index(); i < kRecords; i += w.peers()) {
      input->Send(i);
    }
    input->Close();
  });
  // Each record gains +5 over the pipeline.
  EXPECT_EQ(sum.load(), kRecords * (kRecords - 1) / 2 + 5 * kRecords);
}

TEST(TimelyExtra, ProbeSemanticsOnEmptyFrontier) {
  Execute(Config{2}, [&](Worker& w) {
    auto handles = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      return std::make_pair(in, Probe(stream));
    });
    auto& [input, probe] = handles;
    EXPECT_TRUE(probe.LessEqual(0));
    EXPECT_FALSE(probe.LessThan(0));
    EXPECT_TRUE(probe.LessThan(100));
    input->Close();
    w.StepUntil([&] { return probe.Done(); });
    // Empty frontier: nothing may still arrive.
    EXPECT_FALSE(probe.LessEqual(0));
    EXPECT_FALSE(probe.LessThan(~uint64_t{0}));
  });
}

TEST(TimelyExtra, PerSenderFifoThroughExchange) {
  // Records from one sender to one receiver preserve order within a time.
  const uint32_t workers = 4;
  std::mutex mu;
  std::map<uint64_t, std::vector<uint64_t>> per_sender;  // sender -> seq
  Execute(Config{workers}, [&](Worker& w) {
    auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<std::pair<uint64_t, uint64_t>>(s);
      // All records to worker 0.
      OperatorBuilder<uint64_t> b(s, "FifoSink");
      auto* h = b.AddInput(
          stream, Pact<std::pair<uint64_t, uint64_t>>::Route(
                      [](const auto&) { return 0u; }));
      b.Build([h, &mu, &per_sender](OpCtx<uint64_t>&) {
        h->ForEach([&](const uint64_t&, auto& d) {
          std::lock_guard<std::mutex> lock(mu);
          for (auto& [sender, seq] : d) per_sender[sender].push_back(seq);
        });
      });
      return in;
    });
    for (uint64_t seq = 0; seq < 2000; ++seq) {
      input->Send({w.index(), seq});
    }
    input->Close();
  });
  ASSERT_EQ(per_sender.size(), workers);
  for (auto& [sender, seqs] : per_sender) {
    ASSERT_EQ(seqs.size(), 2000u);
    for (uint64_t i = 0; i < seqs.size(); ++i) {
      ASSERT_EQ(seqs[i], i) << "sender " << sender;
    }
  }
}

TEST(TimelyExtra, NotificationOrderAcrossManyEpochsUnderLoad) {
  // Per-worker delivery order of notifications is by timestamp even when
  // many epochs are in flight simultaneously.
  const uint32_t workers = 2;
  std::mutex mu;
  std::map<uint32_t, std::vector<uint64_t>> delivered;
  Execute(Config{workers}, [&](Worker& w) {
    auto input = w.Dataflow<uint64_t>([&](Scope<uint64_t>& s) {
      auto [in, stream] = NewInput<uint64_t>(s);
      OperatorBuilder<uint64_t> b(s, "ManyEpochs");
      auto* h = b.AddInput(stream, Pact<uint64_t>::Exchange(
                                       [](const uint64_t& x) { return x; }));
      auto notif = std::make_shared<FrontierNotificator<uint64_t>>();
      uint32_t me = s.worker();
      b.Build([h, notif, me, &mu, &delivered](OpCtx<uint64_t>& ctx) {
        h->ForEach([&](const uint64_t& t, std::vector<uint64_t>&) {
          notif->NotifyAt(ctx, t);
        });
        notif->ForEachReady(ctx, {&h->frontier()}, [&](const uint64_t& t) {
          std::lock_guard<std::mutex> lock(mu);
          delivered[me].push_back(t);
        });
      });
      return in;
    });
    // Send 100 epochs without stepping in between (all in flight at once).
    for (uint64_t e = 0; e < 100; ++e) {
      input->Send(w.index());
      input->Send(1 - w.index());
      input->AdvanceTo(e + 1);
    }
    input->Close();
  });
  for (auto& [worker, times] : delivered) {
    ASSERT_EQ(times.size(), 100u);
    for (size_t i = 1; i < times.size(); ++i) {
      EXPECT_LT(times[i - 1], times[i]) << "worker " << worker;
    }
  }
}

}  // namespace
}  // namespace timely
