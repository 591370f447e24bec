// Load benchmark for `vadalink serve`: an in-process server on an
// ephemeral port under a closed-loop multi-client workload of keyed
// reasoning queries (control / ubo / closelinks), health probes and a
// trickle of ingest writes. Shed responses (ResourceExhausted) are
// retried after the server's retry_after_ms hint — the retry count and
// shed rate are part of the result, not noise.
//
// Emits a JSON document to --out (default BENCH_serve.json) that CI
// validates with tools/check_json.py against
// tools/schemas/serve_bench.json:
//
//   { "config": {"clients": 8, "deadline_ms": 2000, ...},
//     "duration_seconds": ...,
//     "graph": {"edges": ..., "nodes": ...},
//     "latency_ms": {"max": ..., "p50": ..., "p90": ..., "p99": ...},
//     "qps": ..., "schema_version": 1, "shed_rate": ...,
//     "totals": {"errors": ..., "ok": ..., "requests": ..., "retries": ...,
//                "shed": ..., "stale": ..., ...} }
//
// Flags: --clients N  --requests N  --max-inflight N  --queue-depth N
//        --deadline-ms N  --persons N  --companies N  --out FILE
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/timer.h"
#include "gen/register_simulator.h"
#include "serve/client.h"
#include "serve/server.h"

using namespace vadalink;

namespace {

struct BenchConfig {
  int clients = 8;
  int requests_per_client = 500;
  int max_inflight = 4;
  int queue_depth = 64;
  int deadline_ms = 2000;
  size_t persons = 400;
  size_t companies = 300;
  std::string out = "BENCH_serve.json";
};

struct ClientStats {
  std::vector<double> latencies_ms;  // completed round trips (ok or error)
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t stale = 0;
  uint64_t errors = 0;   // structured non-shed errors
  uint64_t retries = 0;  // resends after a shed
  uint64_t transport_failures = 0;
};

// One closed-loop client: issues its request mix synchronously, retrying
// shed requests after the hinted backoff (bounded attempts so an
// overloaded server cannot wedge the bench).
ClientStats RunClient(int idx, int port, const BenchConfig& cfg,
                      size_t companies, size_t nodes) {
  ClientStats stats;
  auto conn = serve::Client::Connect("127.0.0.1", port,
                                     /*read_timeout_ms=*/30000);
  if (!conn.ok()) {
    stats.transport_failures = cfg.requests_per_client;
    return stats;
  }
  serve::Client client = std::move(conn).value();
  Rng rng(0xbeefULL + idx);
  stats.latencies_ms.reserve(cfg.requests_per_client);

  for (int i = 0; i < cfg.requests_per_client; ++i) {
    // 90% keyed reads over a small hot set (cache-friendly, like a
    // screening workload), 8% health, 2% ingest writes.
    uint64_t dice = rng.UniformU64(100);
    std::string op;
    Json params = Json::MakeObject();
    if (dice < 30) {
      op = "control";
      params.Set("source", Json::Int(
                               static_cast<int64_t>(rng.UniformU64(nodes))));
    } else if (dice < 60) {
      op = "ubo";
      params.Set("target", Json::Int(static_cast<int64_t>(
                               rng.UniformU64(companies))));
    } else if (dice < 90) {
      op = "closelinks";
      params.Set("company", Json::Int(static_cast<int64_t>(
                                rng.UniformU64(companies))));
    } else if (dice < 98) {
      op = "health";
    } else {
      op = "ingest";
      Json node = Json::MakeObject();
      node.Set("label", Json::Str("Company"));
      Json nodes_arr = Json::MakeArray();
      nodes_arr.Append(node);
      params.Set("nodes", nodes_arr);
    }

    for (int attempt = 0; attempt < 5; ++attempt) {
      WallTimer timer;
      auto resp = client.Call(op, params, cfg.deadline_ms);
      double ms = timer.ElapsedMillis();
      if (!resp.ok()) {
        ++stats.transport_failures;
        auto re = serve::Client::Connect("127.0.0.1", port, 30000);
        if (!re.ok()) return stats;
        client = std::move(re).value();
        break;
      }
      stats.latencies_ms.push_back(ms);
      const Json* ok = resp->Find("ok");
      if (ok != nullptr && ok->AsBool()) {
        ++stats.ok;
        const Json* stale = resp->Find("stale");
        if (stale != nullptr && stale->AsBool()) ++stats.stale;
        break;
      }
      const Json* err = resp->Find("error");
      const Json* retry =
          err != nullptr ? err->Find("retry_after_ms") : nullptr;
      if (retry != nullptr) {
        ++stats.shed;
        ++stats.retries;
        std::this_thread::sleep_for(
            std::chrono::milliseconds(std::max<int64_t>(1, retry->AsInt())));
        continue;  // resend the same request
      }
      ++stats.errors;
      break;
    }
  }
  return stats;
}

double Percentile(std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  double rank = p * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(rank);
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

int64_t FlagInt(int argc, char** argv, const char* name, int64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return std::atoll(argv[i + 1]);
  }
  return fallback;
}

std::string FlagStr(int argc, char** argv, const char* name,
                    std::string fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig cfg;
  cfg.clients = static_cast<int>(FlagInt(argc, argv, "--clients", 8));
  cfg.requests_per_client =
      static_cast<int>(FlagInt(argc, argv, "--requests", 500));
  cfg.max_inflight = static_cast<int>(FlagInt(argc, argv, "--max-inflight", 4));
  cfg.queue_depth = static_cast<int>(FlagInt(argc, argv, "--queue-depth", 64));
  cfg.deadline_ms = static_cast<int>(FlagInt(argc, argv, "--deadline-ms", 2000));
  cfg.persons = static_cast<size_t>(FlagInt(argc, argv, "--persons", 400));
  cfg.companies =
      static_cast<size_t>(FlagInt(argc, argv, "--companies", 300));
  cfg.out = FlagStr(argc, argv, "--out", "BENCH_serve.json");

  gen::RegisterConfig reg_cfg;
  reg_cfg.persons = cfg.persons;
  reg_cfg.companies = cfg.companies;
  reg_cfg.seed = 42;
  gen::RegisterData data = gen::GenerateRegister(reg_cfg);
  size_t node_count = data.graph.node_count();
  size_t edge_count = data.graph.edge_count();
  size_t company_count = data.companies.size();

  MetricsRegistry metrics;
  serve::ServiceOptions service_opts;
  serve::ServerOptions server_opts;
  server_opts.port = 0;
  server_opts.max_inflight = static_cast<size_t>(cfg.max_inflight);
  server_opts.queue_depth = static_cast<size_t>(cfg.queue_depth);
  server_opts.request_deadline_ms = cfg.deadline_ms;
  serve::Server server(service_opts, server_opts, &metrics);
  if (Status st = server.Init(std::move(data.graph), ""); !st.ok()) {
    std::fprintf(stderr, "init failed: %s\n", st.ToString().c_str());
    return 1;
  }
  if (Status st = server.Start(); !st.ok()) {
    std::fprintf(stderr, "start failed: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("serve load: %d clients x %d requests against %zu nodes / "
              "%zu edges (inflight %d, queue %d)\n",
              cfg.clients, cfg.requests_per_client, node_count, edge_count,
              cfg.max_inflight, cfg.queue_depth);

  std::vector<ClientStats> per_client(cfg.clients);
  std::vector<std::thread> threads;
  threads.reserve(cfg.clients);
  WallTimer wall;
  for (int i = 0; i < cfg.clients; ++i) {
    threads.emplace_back([&, i] {
      per_client[i] =
          RunClient(i, server.port(), cfg, company_count, node_count);
    });
  }
  for (auto& t : threads) t.join();
  double duration = wall.ElapsedSeconds();
  server.Stop();

  ClientStats total;
  for (const auto& s : per_client) {
    total.ok += s.ok;
    total.shed += s.shed;
    total.stale += s.stale;
    total.errors += s.errors;
    total.retries += s.retries;
    total.transport_failures += s.transport_failures;
    total.latencies_ms.insert(total.latencies_ms.end(),
                              s.latencies_ms.begin(), s.latencies_ms.end());
  }
  std::sort(total.latencies_ms.begin(), total.latencies_ms.end());
  uint64_t responses = total.latencies_ms.size();
  double qps = duration > 0 ? static_cast<double>(responses) / duration : 0;
  double shed_rate =
      responses > 0 ? static_cast<double>(total.shed) /
                          static_cast<double>(responses)
                    : 0;
  double p50 = Percentile(total.latencies_ms, 0.50);
  double p90 = Percentile(total.latencies_ms, 0.90);
  double p99 = Percentile(total.latencies_ms, 0.99);
  double max_ms =
      total.latencies_ms.empty() ? 0.0 : total.latencies_ms.back();

  Json doc = Json::MakeObject();
  doc.Set("schema_version", Json::Int(1));
  Json jcfg = Json::MakeObject();
  jcfg.Set("clients", Json::Int(cfg.clients));
  jcfg.Set("requests_per_client", Json::Int(cfg.requests_per_client));
  jcfg.Set("max_inflight", Json::Int(cfg.max_inflight));
  jcfg.Set("queue_depth", Json::Int(cfg.queue_depth));
  jcfg.Set("deadline_ms", Json::Int(cfg.deadline_ms));
  doc.Set("config", jcfg);
  Json jgraph = Json::MakeObject();
  jgraph.Set("nodes", Json::Int(static_cast<int64_t>(node_count)));
  jgraph.Set("edges", Json::Int(static_cast<int64_t>(edge_count)));
  doc.Set("graph", jgraph);
  Json jtot = Json::MakeObject();
  jtot.Set("requests", Json::Int(static_cast<int64_t>(
                           cfg.clients) * cfg.requests_per_client));
  jtot.Set("responses", Json::Int(static_cast<int64_t>(responses)));
  jtot.Set("ok", Json::Int(static_cast<int64_t>(total.ok)));
  jtot.Set("shed", Json::Int(static_cast<int64_t>(total.shed)));
  jtot.Set("stale", Json::Int(static_cast<int64_t>(total.stale)));
  jtot.Set("errors", Json::Int(static_cast<int64_t>(total.errors)));
  jtot.Set("retries", Json::Int(static_cast<int64_t>(total.retries)));
  jtot.Set("transport_failures",
           Json::Int(static_cast<int64_t>(total.transport_failures)));
  doc.Set("totals", jtot);
  doc.Set("qps", Json::Double(qps));
  doc.Set("shed_rate", Json::Double(shed_rate));
  Json jlat = Json::MakeObject();
  jlat.Set("p50", Json::Double(p50));
  jlat.Set("p90", Json::Double(p90));
  jlat.Set("p99", Json::Double(p99));
  jlat.Set("max", Json::Double(max_ms));
  doc.Set("latency_ms", jlat);
  doc.Set("duration_seconds", Json::Double(duration));

  if (Status st = WriteJsonFile(cfg.out, doc); !st.ok()) {
    std::fprintf(stderr, "%s\n", st.ToString().c_str());
    return 1;
  }

  std::printf("qps %.0f | p50 %.2fms p90 %.2fms p99 %.2fms max %.2fms | "
              "shed %.1f%% | errors %llu | transport failures %llu\n",
              qps, p50, p90, p99, max_ms, 100.0 * shed_rate,
              static_cast<unsigned long long>(total.errors),
              static_cast<unsigned long long>(total.transport_failures));
  std::printf("wrote %s\n", cfg.out.c_str());
  return total.transport_failures == 0 ? 0 : 1;
}
