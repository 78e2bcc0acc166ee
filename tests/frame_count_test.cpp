// Frames per round on the process mesh. Dataflow inputs are step-staged
// producers: advancing them applies to the local tracker replica at once
// but sends nothing; the worker's next step forwards the whole round's
// input changes as one progress frame per peer (plus at most the step's
// own batch) and only then publishes the bundles they cover.
//
// The two processes of the mesh run as two threads of this test, each
// with its own NetMesh, tracker replica and channel registry — exactly
// what timely::Execute builds in each process of a forked run — so the
// test can read each side's frame counters directly.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "net/mesh.hpp"
#include "net/socket.hpp"
#include "timely/timely.hpp"

namespace timely {
namespace {

using megaphone::net::BindListener;
using megaphone::net::FrameKind;
using megaphone::net::ListenerPort;
using megaphone::net::MeshOptions;
using megaphone::net::NetMesh;
using T = uint64_t;

constexpr uint32_t kInputs = 4;
constexpr uint64_t kRounds = 24;
constexpr uint64_t kRecords = 64;  // per worker and round, all on input 0

/// (receiving worker, time) -> sum of the records it received.
using Sums = std::map<std::pair<uint32_t, T>, uint64_t>;

struct Handles {
  std::vector<Input<uint64_t, T>> ins;
  ProbeHandle<T> probe;
};

/// Four inputs feed one operator that sums what each worker receives per
/// time; records are exchanged by value, so half of them change process.
Handles BuildSums(Scope<T>& s, Sums* sums, std::mutex* mu) {
  Handles h;
  std::vector<Stream<uint64_t, T>> streams;
  for (uint32_t i = 0; i < kInputs; ++i) {
    auto [in, stream] = NewInput<uint64_t>(s);
    h.ins.push_back(in);
    streams.push_back(stream);
  }
  OperatorBuilder<T> b(s, "Sum");
  std::vector<InputHandle<uint64_t, T>*> ports;
  for (auto& stream : streams) {
    ports.push_back(b.AddInput(
        stream, Pact<uint64_t>::Exchange([](const uint64_t& x) { return x; })));
  }
  auto [out, out_stream] = b.template AddOutput<uint64_t>();
  (void)out;
  const uint32_t me = s.worker();
  b.Build([ports, sums, mu, me](OpCtx<T>&) {
    for (auto* port : ports) {
      port->ForEach([&](const T& t, std::vector<uint64_t>& recs) {
        uint64_t sum = 0;
        for (uint64_t x : recs) sum += x;
        std::lock_guard<std::mutex> lock(*mu);
        (*sums)[{me, t}] += sum;
      });
    }
  });
  h.probe = Probe(out_stream);
  return h;
}

struct Sent {
  uint64_t data = 0;
  uint64_t progress = 0;
};

Sent SentBy(const NetMesh& mesh) {
  return Sent{mesh.FramesSent(FrameKind::kData),
              mesh.FramesSent(FrameKind::kProgress)};
}

/// One worker's rounds. With a mesh, each round checks its frame counts:
/// the four advances (one of them flushing buffered records) send no
/// frame, and the next step sends one progress frame for the round's
/// input changes plus at most one for its own batch.
void RunRounds(Worker& w, Sums* sums, std::mutex* mu, const NetMesh* mesh) {
  Handles h = w.Dataflow<T>(
      [&](Scope<T>& s) { return BuildSums(s, sums, mu); });
  for (T r = 0; r < kRounds; ++r) {
    for (uint64_t i = 0; i < kRecords; ++i) {
      h.ins[0]->Send(1 + w.index() * kRounds * kRecords + r * kRecords + i);
    }
    Sent before = mesh ? SentBy(*mesh) : Sent{};
    for (auto& in : h.ins) in->AdvanceTo(r + 1);
    if (mesh != nullptr) {
      Sent advanced = SentBy(*mesh);
      EXPECT_EQ(advanced.progress, before.progress)
          << "round " << r << ": AdvanceTo sent a progress frame";
      EXPECT_EQ(advanced.data, before.data)
          << "round " << r << ": AdvanceTo sent a data frame";
    }
    w.Step();
    if (mesh != nullptr) {
      uint64_t frames = SentBy(*mesh).progress - before.progress;
      EXPECT_GE(frames, 1u) << "round " << r << ": input changes not sent";
      EXPECT_LE(frames, 2u) << "round " << r
                            << ": more than the round's frame and the "
                               "step's own batch";
    }
    w.StepUntil([&] { return !h.probe.LessThan(r + 1); });
  }
  for (auto& in : h.ins) in->Close();
}

/// Runs `fn(worker, mesh)` as global worker p of a 2-process x 1-worker
/// mesh on loopback, one thread per process, and tears the mesh down the
/// way Execute does: worker drained first, then the goodbye exchange.
template <typename Fn>
void RunTwoProcessMesh(Fn fn) {
  int l0 = BindListener("127.0.0.1", 0, 2);
  int l1 = BindListener("127.0.0.1", 0, 2);
  std::vector<std::string> addresses = {
      "127.0.0.1:" + std::to_string(ListenerPort(l0)),
      "127.0.0.1:" + std::to_string(ListenerPort(l1)),
  };
  auto opts = [&](uint32_t index, int fd) {
    MeshOptions o;
    o.processes = 2;
    o.process_index = index;
    o.workers_per_process = 1;
    o.addresses = addresses;
    o.listen_fd = fd;
    return o;
  };
  std::unique_ptr<NetMesh> mesh[2];
  // The constructors handshake with each other, so they run concurrently.
  std::thread t1([&] { mesh[1] = std::make_unique<NetMesh>(opts(1, l1)); });
  mesh[0] = std::make_unique<NetMesh>(opts(0, l0));
  t1.join();

  std::vector<std::thread> processes;
  for (uint32_t p = 0; p < 2; ++p) {
    processes.emplace_back([&, p] {
      auto runtime = std::make_shared<RuntimeShared>(2, p, 1, mesh[p].get());
      runtime->channels.SetNet(mesh[p].get());
      {
        Worker w(p, runtime);
        fn(w, *mesh[p]);
        w.StepUntilComplete();
      }
      mesh[p]->Shutdown();
    });
  }
  for (auto& t : processes) t.join();
}

TEST(InputProgress, AdvancesRideTheNextStepInOneFramePerPeer) {
  std::mutex mu;
  Sums single;
  Execute(Config{2}, [&](Worker& w) { RunRounds(w, &single, &mu, nullptr); });

  Sums meshed;
  RunTwoProcessMesh([&](Worker& w, const NetMesh& mesh) {
    RunRounds(w, &meshed, &mu, &mesh);
  });

  // Every record was received exactly once, by the same worker, at the
  // same time, as in the single-process run.
  uint64_t total = 0;
  for (const auto& [key, sum] : single) total += sum;
  const uint64_t n = kRounds * kRecords * 2;  // records sent, both workers
  EXPECT_EQ(total, n * (n + 1) / 2);
  EXPECT_EQ(meshed, single);
}

}  // namespace
}  // namespace timely
