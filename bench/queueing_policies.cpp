// Extension: dispatch policies for a served system. The paper's batches
// presuppose someone decided when to dispatch; this bench runs a Poisson
// arrival stream against one drive and sweeps the dispatch policy,
// showing (a) the saturation point without scheduling (~44 req/h), (b)
// how LOSS batching raises sustainable throughput severalfold, and (c)
// the response-time price of larger dispatch batches at light load.
#include <cstdio>

#include "bench_common.h"
#include "serpentine/sim/online_server.h"

using namespace serpentine;

int main() {
  bench::PrintHeader("Queueing policies (extension)",
                     "Poisson arrivals vs dispatch policy and algorithm; "
                     "one DLT4000 drive");

  tape::Dlt4000LocateModel model = bench::MakeTapeAModel();
  const int total = static_cast<int>(ScaledTrials(3000, 10, 60, 150));

  std::printf("Experiment 1: sustainable throughput (arrival sweep, "
              "dispatch when >=16 pending)\n\n");
  Table t1;
  t1.SetHeader({"arrivals/h", "algo", "mean resp s", "p95 resp s",
                "utilization", "throughput/h"});
  for (double rate : {30.0, 60.0, 120.0, 240.0}) {
    for (sched::Algorithm a :
         {sched::Algorithm::kFifo, sched::Algorithm::kLoss}) {
      sim::OnlineServerConfig config;
      config.arrival_rate_per_hour = rate;
      config.total_requests = total;
      config.algorithm = a;
      config.dispatch_min_batch = 16;
      auto result = sim::RunOnlineServer(model, config);
      if (!result.ok()) {
        std::fprintf(stderr, "%s@%.0f: %s\n", sched::AlgorithmName(a), rate,
                     result.status().ToString().c_str());
        return 1;
      }
      const sim::OnlineServerResult& r = *result;
      t1.AddRow({Table::Num(rate, 0), sched::AlgorithmName(a),
                 Table::Num(r.mean_response_seconds, 0),
                 Table::Num(r.p95_response_seconds, 0),
                 Table::Num(r.utilization, 2),
                 Table::Num(r.throughput_per_hour, 0)});
    }
  }
  t1.Print();

  std::printf("\nExperiment 2: dispatch batch size at 60 arrivals/h, "
              "LOSS\n\n");
  Table t2;
  t2.SetHeader({"min batch", "mean batch", "busy s/req", "mean resp s",
                "p95 resp s"});
  for (int b : {1, 4, 16, 64, 256}) {
    sim::OnlineServerConfig config;
    config.arrival_rate_per_hour = 60.0;
    config.total_requests = total;
    config.dispatch_min_batch = b;
    auto result = sim::RunOnlineServer(model, config);
    if (!result.ok()) {
      std::fprintf(stderr, "min batch %d: %s\n", b,
                   result.status().ToString().c_str());
      return 1;
    }
    const sim::OnlineServerResult& r = *result;
    t2.AddRow({Table::Int(b), Table::Num(r.mean_batch_size, 1),
               Table::Num(r.drive_busy_seconds / (r.completed + r.failed), 1),
               Table::Num(r.mean_response_seconds, 0),
               Table::Num(r.p95_response_seconds, 0)});
  }
  t2.Print();
  std::printf(
      "\nExpected: FIFO saturates below ~44 arrivals/h (responses explode "
      "at 60+), LOSS stays stable to 100+; at fixed light load, larger "
      "dispatch batches cut drive busy per request but add queueing "
      "delay.\n");
  return 0;
}
