// §3.9 introspection: the Prometheus exposition writer (golden format +
// live-scrape round trip), the HTTP endpoints (/metrics /healthz /progress
// /stream), the ProgressBoard seqlock under concurrent hammering, the
// zero-perturbation contract (digests unchanged with a board installed),
// and the /progress ETA converging to the true remaining time.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/init.h"
#include "engine/sharded.h"
#include "engine/stopping.h"
#include "faults/environment.h"
#include "obs/progress.h"
#include "obs/prometheus.h"
#include "obs/server.h"
#include "obs/snapshot.h"
#include "profile/counters.h"
#include "protocols/minority.h"
#include "snapshot/state.h"
#include "telemetry/json.h"
#include "telemetry/metrics.h"
#include "telemetry/telemetry.h"

namespace bitspread {
namespace {

// --- Plain-socket HTTP client (the tests exercise the real wire format) ---

std::string http_get_raw(std::uint16_t port, const std::string& target) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      "GET " + target + " HTTP/1.1\r\nHost: test\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
    if (got <= 0) break;
    response.append(buffer, static_cast<std::size_t>(got));
  }
  ::close(fd);
  return response;
}

std::string body_of(const std::string& response) {
  const std::size_t split = response.find("\r\n\r\n");
  return split == std::string::npos ? "" : response.substr(split + 4);
}

std::string http_get(std::uint16_t port, const std::string& target) {
  return body_of(http_get_raw(port, target));
}

// Decodes a chunked transfer-encoding body back into the payload.
std::string dechunk(const std::string& body) {
  std::string out;
  std::size_t pos = 0;
  while (pos < body.size()) {
    const std::size_t eol = body.find("\r\n", pos);
    if (eol == std::string::npos) break;
    const std::size_t size =
        std::strtoull(body.substr(pos, eol - pos).c_str(), nullptr, 16);
    if (size == 0) break;
    out.append(body, eol + 2, size);
    pos = eol + 2 + size + 2;  // Chunk data plus its trailing CRLF.
  }
  return out;
}

// --- Minimal exposition parser for the round-trip test --------------------

struct ParsedSample {
  std::string name;
  std::map<std::string, std::string> labels;
  double value = 0.0;
};

// Parses every sample line; EXPECTs on malformed structure so a format
// regression fails loudly here as well as in tools/check_exposition.py.
std::vector<ParsedSample> parse_exposition(const std::string& text) {
  std::vector<ParsedSample> samples;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.empty() || line[0] == '#') continue;
    ParsedSample sample;
    std::size_t brace = line.find('{');
    std::size_t value_at;
    if (brace != std::string::npos) {
      sample.name = line.substr(0, brace);
      const std::size_t close = line.rfind('}');
      EXPECT_NE(close, std::string::npos) << line;
      std::size_t i = brace + 1;
      while (i < close) {
        const std::size_t eq = line.find('=', i);
        EXPECT_NE(eq, std::string::npos) << line;
        if (eq == std::string::npos) break;
        const std::string label = line.substr(i, eq - i);
        EXPECT_EQ(line[eq + 1], '"') << line;
        std::string value;
        std::size_t j = eq + 2;
        while (j < close && line[j] != '"') {
          if (line[j] == '\\' && j + 1 < close) {
            value += line[j + 1] == 'n' ? '\n' : line[j + 1];
            j += 2;
          } else {
            value += line[j++];
          }
        }
        sample.labels[label] = value;
        i = j + 1;
        if (i < close && line[i] == ',') ++i;
      }
      value_at = close + 1;
    } else {
      const std::size_t space = line.find(' ');
      EXPECT_NE(space, std::string::npos) << line;
      if (space == std::string::npos) continue;
      sample.name = line.substr(0, space);
      value_at = space;
    }
    sample.value = std::strtod(line.c_str() + value_at, nullptr);
    for (const char c : sample.name) {
      EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
                  c == ':')
          << "bad metric name char in " << sample.name;
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

// --- Name/label escaping ---------------------------------------------------

TEST(Exposition, SanitizesMetricNames) {
  EXPECT_EQ(obs::sanitize_metric_name("outcomes.converged"),
            "outcomes_converged");
  EXPECT_EQ(obs::sanitize_metric_name("rounds-total"), "rounds_total");
  EXPECT_EQ(obs::sanitize_metric_name("ok_name_42"), "ok_name_42");
  EXPECT_EQ(obs::sanitize_metric_name("weird % name"), "weird___name");
}

TEST(Exposition, EscapesLabelValues) {
  EXPECT_EQ(obs::escape_label_value("plain"), "plain");
  EXPECT_EQ(obs::escape_label_value("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::escape_label_value("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(obs::escape_label_value("two\nlines"), "two\\nlines");
}

TEST(Exposition, EscapesHelpText) {
  EXPECT_EQ(obs::escape_help_text("plain help"), "plain help");
  EXPECT_EQ(obs::escape_help_text("a\\b"), "a\\\\b");
  EXPECT_EQ(obs::escape_help_text("two\nlines"), "two\\nlines");
  // Quotes are legal in HELP text, unescaped.
  EXPECT_EQ(obs::escape_help_text("say \"hi\""), "say \"hi\"");
}

// --- Golden format from a hand-built snapshot ------------------------------

obs::MetricsSnapshot golden_snapshot() {
  obs::MetricsSnapshot snapshot;
  snapshot.registry.counters["outcomes.converged"] = 3;
  snapshot.registry.counters["outcomes.degraded"] = 1;
  snapshot.registry.counters["rounds.total"] = 1500;  // Already *_total.
  snapshot.registry.gauges["pool.workers"] = 4.0;
  MetricsRegistry::HistogramSnapshot hist;
  hist.bounds = {0.001, 0.01};
  hist.counts = {10, 5, 2};  // Per-bucket; exposition must cumulate.
  hist.count = 17;
  hist.sum = 0.09;
  snapshot.registry.histograms["round.seconds"] = hist;

  snapshot.phases_present = true;
  const auto step = static_cast<std::size_t>(telemetry::Phase::kRoundStep);
  snapshot.phase_ns[step] = 250'000'000;  // 0.25 s.
  snapshot.phase_events[step] = 1000;

  obs::MetricsSnapshot::PmuRow pmu;
  pmu.phase = static_cast<int>(telemetry::Phase::kRoundStep);
  pmu.samples = 1000;
  pmu.wall_ns = 250'000'000;
  pmu.value[static_cast<std::size_t>(profile::Counter::kCycles)] = 42'000'000;
  pmu.counted[static_cast<std::size_t>(profile::Counter::kCycles)] = true;
  snapshot.pmu_present = true;
  snapshot.pmu_backed = true;
  snapshot.pmu.push_back(pmu);

  obs::ProgressRecord run;
  run.active = true;
  run.run_ordinal = 0;
  run.engine = "sharded.faulty";
  run.faulty = true;
  run.round = 500;
  run.max_rounds = 2000;
  run.ones = 8192;
  run.n = 16384;
  run.rounds_per_sec = 123.5;
  run.eta_seconds = 12.1;
  snapshot.runs.push_back(run);
  snapshot.runs_started = 1;
  return snapshot;
}

TEST(Exposition, GoldenFormat) {
  const std::string text = obs::to_exposition(golden_snapshot());

  // Registry counters: TYPE counter, sanitized, _total appended exactly
  // once.
  EXPECT_NE(text.find("# TYPE bitspread_outcomes_converged_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("bitspread_outcomes_converged_total 3\n"),
            std::string::npos);
  EXPECT_NE(text.find("bitspread_outcomes_degraded_total 1\n"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE bitspread_rounds_total counter"),
            std::string::npos);
  EXPECT_EQ(text.find("bitspread_rounds_total_total"), std::string::npos)
      << "_total must not be doubled";

  // Gauges: TYPE gauge, no suffix.
  EXPECT_NE(text.find("# TYPE bitspread_pool_workers gauge"),
            std::string::npos);
  EXPECT_NE(text.find("bitspread_pool_workers 4\n"), std::string::npos);
  EXPECT_EQ(text.find("bitspread_pool_workers_total"), std::string::npos);

  // Histograms: cumulative buckets, +Inf, _sum, _count.
  EXPECT_NE(text.find("# TYPE bitspread_round_seconds histogram"),
            std::string::npos);
  EXPECT_NE(text.find("bitspread_round_seconds_bucket{le=\"0.001\"} 10\n"),
            std::string::npos);
  EXPECT_NE(text.find("bitspread_round_seconds_bucket{le=\"0.01\"} 15\n"),
            std::string::npos)
      << "buckets must be cumulative (10 + 5)";
  EXPECT_NE(text.find("bitspread_round_seconds_bucket{le=\"+Inf\"} 17\n"),
            std::string::npos);
  EXPECT_NE(text.find("bitspread_round_seconds_count 17\n"),
            std::string::npos);
  EXPECT_NE(text.find("bitspread_round_seconds_sum"), std::string::npos);

  // Phase rows, labelled by phase_name().
  EXPECT_NE(
      text.find("bitspread_phase_seconds_total{phase=\"round_step\"} 0.25\n"),
      std::string::npos)
      << text;
  EXPECT_NE(
      text.find("bitspread_phase_events_total{phase=\"round_step\"} 1000\n"),
      std::string::npos);

  // PMU rows, labelled by phase and counter.
  EXPECT_NE(text.find("bitspread_pmu_events_total{phase=\"round_step\","
                      "counter=\"cycles\"} 42000000\n"),
            std::string::npos)
      << text;

  // Progress: per-run gauges and board totals.
  EXPECT_NE(text.find("bitspread_run_round{run=\"0\","
                      "engine=\"sharded.faulty\"} 500\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("bitspread_run_ones{run=\"0\","
                      "engine=\"sharded.faulty\"} 8192\n"),
            std::string::npos);
  EXPECT_NE(text.find("bitspread_runs_started_total 1\n"), std::string::npos);

  // Structural: every sample parses, no duplicates.
  const auto samples = parse_exposition(text);
  EXPECT_GT(samples.size(), 15u);
  std::map<std::string, int> seen;
  for (const auto& sample : samples) {
    std::string key = sample.name;
    for (const auto& [k, v] : sample.labels) key += "|" + k + "=" + v;
    EXPECT_EQ(++seen[key], 1) << "duplicate sample " << key;
  }
}

TEST(Exposition, EveryFamilyHasHelpAndType) {
  const std::string text = obs::to_exposition(golden_snapshot());
  // Collect TYPE'd families, then check each sample's family is declared
  // BEFORE its first sample line.
  std::map<std::string, bool> declared;
  std::size_t start = 0;
  while (start < text.size()) {
    std::size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    const std::string line = text.substr(start, end - start);
    start = end + 1;
    if (line.rfind("# TYPE ", 0) == 0) {
      const std::size_t space = line.find(' ', 7);
      declared[line.substr(7, space - 7)] = true;
      continue;
    }
    if (line.empty() || line[0] == '#') continue;
    std::string name = line.substr(0, line.find_first_of("{ "));
    std::string family = name;
    for (const char* suffix : {"_bucket", "_sum", "_count"}) {
      const std::string s(suffix);
      if (name.size() > s.size() &&
          name.compare(name.size() - s.size(), s.size(), s) == 0) {
        const std::string stem = name.substr(0, name.size() - s.size());
        if (declared.count(stem)) family = stem;
      }
    }
    EXPECT_TRUE(declared.count(family))
        << "sample " << name << " has no preceding TYPE";
  }
  // And HELP count matches TYPE count.
  std::size_t helps = 0, pos = 0;
  while ((pos = text.find("# HELP ", pos)) != std::string::npos) {
    ++helps;
    pos += 7;
  }
  EXPECT_EQ(helps, declared.size());
}

// --- ProgressBoard seqlock -------------------------------------------------

TEST(ProgressBoard, ClaimPublishReadRelease) {
  obs::ProgressBoard board;
  const std::size_t slot = board.claim("aggregate", 1000, 4096, false, 17);
  ASSERT_NE(slot, obs::ProgressBoard::kNoSlot);
  EXPECT_EQ(board.runs_started(), 1u);
  EXPECT_EQ(board.runs_finished(), 0u);

  obs::ProgressRecord record;
  record.active = true;
  record.engine = "aggregate";
  record.round = 250;
  record.max_rounds = 1000;
  record.ones = 2048;
  record.n = 4096;
  record.start_ns = 17;
  record.publish_ns = 1000017;
  board.publish(slot, record);

  auto runs = board.read();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_TRUE(runs[0].active);
  EXPECT_EQ(runs[0].round, 250u);
  EXPECT_EQ(runs[0].ones, 2048u);
  EXPECT_STREQ(runs[0].engine, "aggregate");

  // Release keeps the record readable, inactive.
  record.active = false;
  record.round = 1000;
  board.release(slot, record);
  runs = board.read();
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_FALSE(runs[0].active);
  EXPECT_EQ(runs[0].round, 1000u);
  EXPECT_EQ(board.runs_finished(), 1u);

  // The slot is reclaimable after release.
  const std::size_t again = board.claim("voter", 10, 64, false, 99);
  EXPECT_NE(again, obs::ProgressBoard::kNoSlot);
  EXPECT_EQ(board.runs_started(), 2u);
}

TEST(ProgressBoard, OverflowClaimsReturnNoSlot) {
  obs::ProgressBoard board;
  std::vector<std::size_t> slots;
  for (std::size_t i = 0; i < obs::ProgressBoard::kSlots; ++i) {
    const std::size_t slot = board.claim("e", 1, 1, false, 0);
    ASSERT_NE(slot, obs::ProgressBoard::kNoSlot);
    slots.push_back(slot);
  }
  // Board full: the claim is counted but gets no slot, and never blocks.
  EXPECT_EQ(board.claim("e", 1, 1, false, 0), obs::ProgressBoard::kNoSlot);
  EXPECT_EQ(board.runs_started(), obs::ProgressBoard::kSlots + 1);
  obs::ProgressRecord record;
  board.release(slots[3], record);
  EXPECT_NE(board.claim("e", 1, 1, false, 0), obs::ProgressBoard::kNoSlot);
}

TEST(ProgressBoard, ReadsAreNeverTornUnderConcurrentPublishes) {
  // The writer publishes records whose fields are arithmetically locked
  // together (ones = 3*round, n = 7*round); any torn read breaks the
  // relation. Hammer from one writer and one reader for a few ms.
  obs::ProgressBoard board;
  const std::size_t slot = board.claim("hammer", 1u << 30, 1, false, 0);
  ASSERT_NE(slot, obs::ProgressBoard::kNoSlot);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> consistent_reads{0};

  std::thread writer([&] {
    obs::ProgressRecord record;
    record.active = true;
    record.engine = "hammer";
    record.max_rounds = 1u << 30;
    for (std::uint64_t round = 1; !stop.load(std::memory_order_relaxed);
         ++round) {
      record.round = round;
      record.ones = 3 * round;
      record.n = 7 * round;
      record.publish_ns = round;
      board.publish(slot, record);
    }
  });
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto runs = board.read();
      for (const auto& r : runs) {
        ASSERT_EQ(r.ones, 3 * r.round) << "torn seqlock read";
        ASSERT_EQ(r.n, 7 * r.round) << "torn seqlock read";
      }
      if (!runs.empty()) {
        consistent_reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  stop.store(true);
  writer.join();
  reader.join();
  EXPECT_GT(consistent_reads.load(), 100u)
      << "reader must make progress against a hot writer";
}

TEST(ProgressScope, DormantWithoutBoard) {
  ASSERT_EQ(telemetry::sinks().progress, nullptr)
      << "another test leaked an installed board";
  obs::RunProgressScope scope(telemetry::sinks().progress, "aggregate", 100,
                              64, false);
  EXPECT_FALSE(scope.attached());
  scope.on_round(1, 32, 64, nullptr);  // Must be a harmless no-op.
  scope.finish(100, 64, 64, nullptr);
}

// --- Zero perturbation: digests unchanged with a board installed ----------

TEST(ProgressScope, BoardDoesNotPerturbRunDigests) {
  const MinorityDynamics minority(3);
  ShardedEngineOptions options;
  options.threads = 2;
  const ShardedAgentEngine engine(minority, options);
  const Configuration init = init_fraction_ones(1 << 12, Opinion::kOne, 0.5);
  StopRule rule;
  rule.max_rounds = 120;  // Balanced minority stalls: full-length run.

  const std::uint64_t golden =
      snapshot::payload_digest(engine.run(init, rule, 1234));
  {
    obs::ProgressBoard board;
    {
      const telemetry::SinkScope scope({.progress = &board});
      EXPECT_EQ(snapshot::payload_digest(engine.run(init, rule, 1234)),
                golden)
          << "a progress board must never change simulation output";
    }
    EXPECT_EQ(board.runs_started(), 1u);
    EXPECT_EQ(board.runs_finished(), 1u);
    const auto runs = board.read();
    ASSERT_EQ(runs.size(), 1u);
    EXPECT_FALSE(runs[0].active);
    EXPECT_EQ(runs[0].round, 120u);
  }
  EXPECT_EQ(snapshot::payload_digest(engine.run(init, rule, 1234)), golden);
}

// --- ETA accuracy against a real sharded faulty run ------------------------

TEST(ProgressScope, EtaConvergesOnShardedFaultyRun) {
  const MinorityDynamics minority(3);
  ShardedEngineOptions options;
  options.threads = 2;
  const ShardedAgentEngine engine(minority, options);
  const Configuration init = init_fraction_ones(1 << 13, Opinion::kOne, 0.5);
  StopRule rule;
  // Stalls: the run uses its whole budget. Sized so the run lasts a couple
  // of seconds even on a fast host — the ETA check needs a second half long
  // enough to sample (~20k faulty sharded rounds/sec at this n).
  rule.max_rounds = 60000;
  EnvironmentModel faults;
  faults.observation_noise = 0.02;
  faults.source_flip_rounds = {100};

  obs::ProgressBoard board;
  const telemetry::SinkScope scope({.progress = &board});
  std::atomic<bool> done{false};
  std::chrono::steady_clock::time_point finished_at;
  std::thread runner([&] {
    engine.run(init, rule, faults, 777);
    finished_at = std::chrono::steady_clock::now();
    done.store(true, std::memory_order_release);
  });

  // Sample (published ETA, actual wall remaining) pairs over the run.
  struct EtaSample {
    double fraction_done;
    double eta;
    std::chrono::steady_clock::time_point at;
  };
  std::vector<EtaSample> sampled;
  while (!done.load(std::memory_order_acquire)) {
    const auto runs = board.read();
    if (!runs.empty() && runs[0].active && runs[0].rounds_per_sec > 0) {
      sampled.push_back({static_cast<double>(runs[0].round) / rule.max_rounds,
                         runs[0].eta_seconds,
                         std::chrono::steady_clock::now()});
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  runner.join();

  EXPECT_EQ(board.read().at(0).round, rule.max_rounds);
  // Over the run's second half, the median relative ETA error must be
  // small. Median, not max: a scheduler stall in a 2-thread CI container
  // can skew individual samples; systematic mis-estimation cannot hide
  // from the median. The 35% bar is looser than the 20% the long-run
  // acceptance demands because this run is only a few seconds long, so
  // each EWMA window is a larger fraction of the whole.
  std::vector<double> errors;
  for (const auto& sample : sampled) {
    if (sample.fraction_done < 0.5) continue;
    const double actual =
        std::chrono::duration<double>(finished_at - sample.at).count();
    if (actual < 0.05) continue;  // Division noise at the very end.
    errors.push_back(std::abs(sample.eta - actual) / actual);
  }
  ASSERT_GT(errors.size(), 3u)
      << "run finished too fast to sample its second half ("
      << sampled.size() << " samples total)";
  std::sort(errors.begin(), errors.end());
  const double median_error = errors[errors.size() / 2];
  EXPECT_LT(median_error, 0.35)
      << "median relative ETA error over the second half";
}

// --- Live server round trip ------------------------------------------------

class LiveServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::ServerOptions options;
    options.listen = "127.0.0.1:0";
    options.registry = &registry_;
    options.hub = &hub_;
    server_ = std::make_unique<obs::IntrospectionServer>(options);
    ASSERT_TRUE(server_->ok()) << server_->error();
    ASSERT_NE(server_->port(), 0);
  }

  MetricsRegistry registry_;
  obs::StreamHub hub_;
  std::unique_ptr<obs::IntrospectionServer> server_;
};

TEST_F(LiveServerTest, MetricsRoundTripMatchesRegistry) {
  registry_.counter("outcomes.converged").increment(7);
  registry_.counter("scrape.test").increment(41);
  registry_.gauge("pool.workers").set(3.0);
  auto hist = registry_.histogram("round.seconds", {0.001, 0.1});
  hist.observe(0.0005);
  hist.observe(0.05);
  hist.observe(5.0);

  const std::string text = http_get(server_->port(), "/metrics");
  const auto samples = parse_exposition(text);
  std::map<std::string, double> flat;
  for (const auto& sample : samples) {
    std::string key = sample.name;
    for (const auto& [k, v] : sample.labels) key += "{" + k + "=" + v + "}";
    EXPECT_EQ(flat.count(key), 0u) << "duplicate " << key;
    flat[key] = sample.value;
  }
  EXPECT_EQ(flat.at("bitspread_outcomes_converged_total"), 7.0);
  EXPECT_EQ(flat.at("bitspread_scrape_test_total"), 41.0);
  EXPECT_EQ(flat.at("bitspread_pool_workers"), 3.0);
  EXPECT_EQ(flat.at("bitspread_round_seconds_bucket{le=0.001}"), 1.0);
  EXPECT_EQ(flat.at("bitspread_round_seconds_bucket{le=0.1}"), 2.0);
  EXPECT_EQ(flat.at("bitspread_round_seconds_bucket{le=+Inf}"), 3.0);
  EXPECT_EQ(flat.at("bitspread_round_seconds_count"), 3.0);
  // The server appends its own scrape counter.
  EXPECT_GE(flat.at("bitspread_exporter_scrapes_total"), 1.0);
}

TEST_F(LiveServerTest, HealthzParsesAndReportsState) {
  const std::string raw = http_get_raw(server_->port(), "/healthz");
  EXPECT_NE(raw.find("200 OK"), std::string::npos);
  EXPECT_NE(raw.find("application/json"), std::string::npos);
  const auto doc = JsonValue::parse(body_of(raw));
  ASSERT_TRUE(doc.has_value()) << body_of(raw);
  EXPECT_NE(doc->find("status"), nullptr);
  EXPECT_NE(doc->find("uptime_seconds"), nullptr);
  EXPECT_NE(doc->find("scrapes"), nullptr);
  EXPECT_NE(doc->find("stream_available"), nullptr);
}

TEST_F(LiveServerTest, ProgressReportsBoardRuns) {
  obs::ProgressBoard board;
  const telemetry::SinkScope scope({.progress = &board});
  const std::size_t slot = board.claim("aggregate", 1000, 4096, false, 1);
  obs::ProgressRecord record;
  record.active = true;
  record.engine = "aggregate";
  record.round = 400;
  record.max_rounds = 1000;
  record.ones = 1024;
  record.n = 4096;
  record.rounds_per_sec = 100.0;
  record.eta_seconds = 6.0;
  record.start_ns = 1;
  record.publish_ns = 2'000'000'001;
  board.publish(slot, record);

  const auto doc = JsonValue::parse(http_get(server_->port(), "/progress"));
  ASSERT_TRUE(doc.has_value());
  const JsonValue* schema = doc->find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "bitspread-progress/1");
  const JsonValue* runs = doc->find("runs");
  ASSERT_NE(runs, nullptr);
  ASSERT_EQ(runs->items().size(), 1u);
  const JsonValue& row = runs->items()[0];
  EXPECT_EQ(row.find("engine")->as_string(), "aggregate");
  EXPECT_EQ(row.find("round")->as_uint(), 400u);
  EXPECT_EQ(row.find("remaining_rounds")->as_uint(), 600u);
  EXPECT_NEAR(row.find("x")->as_double(), 0.25, 1e-9);
  EXPECT_NEAR(row.find("eta_seconds")->as_double(), 6.0, 1e-9);
}

TEST_F(LiveServerTest, UnknownEndpointIs404) {
  const std::string raw = http_get_raw(server_->port(), "/nope");
  EXPECT_NE(raw.find("404"), std::string::npos);
}

TEST_F(LiveServerTest, MetricsScrapeValidatesWhileRunsPublish) {
  // Scrapes taken mid-run must stay structurally valid: hammer the board
  // from a writer while scraping repeatedly.
  obs::ProgressBoard board;
  const telemetry::SinkScope scope({.progress = &board});
  const std::size_t slot = board.claim("sharded.faulty", 1u << 20, 64, true, 0);
  std::atomic<bool> stop{false};
  std::atomic<bool> published{false};
  std::thread writer([&] {
    obs::ProgressRecord record;
    record.active = true;
    record.engine = "sharded.faulty";
    record.max_rounds = 1u << 20;
    record.n = 64;
    for (std::uint64_t round = 1; !stop.load(); ++round) {
      record.round = round;
      record.ones = round % 65;
      record.publish_ns = round;
      board.publish(slot, record);
      published.store(true);
      // ~20k publishes/sec — three orders of magnitude hotter than the
      // ~10/sec a real RunProgressScope emits, while still leaving even-seq
      // windows a scraper can land in. A zero-delay loop would keep the
      // seqlock odd essentially always, which no real writer does.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  // The claim stamps publish_ns = 0, which the board reads as "never
  // published", so the run only shows once the writer thread has published.
  // Scraping before that (a loaded host can start the thread late) would
  // test nothing but thread start-up.
  while (!published.load()) std::this_thread::yield();
  for (int scrape = 0; scrape < 5; ++scrape) {
    const std::string text = http_get(server_->port(), "/metrics");
    const auto samples = parse_exposition(text);
    EXPECT_FALSE(samples.empty());
    bool saw_run = false;
    for (const auto& sample : samples) {
      if (sample.name == "bitspread_run_round") {
        saw_run = true;
        EXPECT_EQ(sample.labels.at("engine"), "sharded.faulty");
      }
    }
    EXPECT_TRUE(saw_run);
  }
  stop.store(true);
  writer.join();
}

TEST_F(LiveServerTest, StreamDeliversLiveRounds) {
  const telemetry::SinkScope scope({.rounds = &hub_});
  std::atomic<bool> stop{false};
  std::thread producer([&] {
    std::uint64_t round = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      ++round;
      telemetry::record_round(round, round * 2, 1024);
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  });

  const std::string raw = http_get_raw(server_->port(), "/stream?lines=3");
  stop.store(true);
  producer.join();

  EXPECT_NE(raw.find("200 OK"), std::string::npos);
  EXPECT_NE(raw.find("chunked"), std::string::npos);
  const std::string payload = dechunk(body_of(raw));
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < payload.size()) {
    std::size_t end = payload.find('\n', start);
    if (end == std::string::npos) break;
    lines.push_back(payload.substr(start, end - start));
    start = end + 1;
  }
  ASSERT_EQ(lines.size(), 3u) << payload;
  for (const std::string& line : lines) {
    const auto doc = JsonValue::parse(line);
    ASSERT_TRUE(doc.has_value()) << line;
    ASSERT_NE(doc->find("round"), nullptr);
    const std::uint64_t round = doc->find("round")->as_uint();
    EXPECT_EQ(doc->find("ones")->as_uint(), round * 2);
    EXPECT_EQ(doc->find("n")->as_uint(), 1024u);
  }
}

// The teardown race the install lock closes: a bench's SinkScope ends and
// its sinks are freed while a --listen scrape may be mid-capture. The
// capture holds the lock SinkScope takes to install and restore, so this
// runs clean under ASan; and because one scope installs every sink at once,
// each capture sees all of them or none.
TEST(MetricsCapture, ScrapeWhileInstallHammerIsClean) {
  MetricsRegistry registry;
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> captures{0};
  std::atomic<std::uint64_t> saw_sinks{0};
  std::thread scraper([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const obs::MetricsSnapshot snap = obs::capture_metrics(registry);
      const bool board = snap.runs_started > 0;
      EXPECT_EQ(snap.pmu_present, board);
      EXPECT_EQ(snap.phases_present, board);
      if (snap.pmu_present) {
        ASSERT_EQ(snap.pmu.size(), 1u);
        EXPECT_EQ(snap.pmu[0].samples, 1u);
        EXPECT_EQ(snap.runs.size(), 1u);
        saw_sinks.fetch_add(1, std::memory_order_relaxed);
      }
      captures.fetch_add(1, std::memory_order_relaxed);
    }
  });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  for (int round = 0;
       (round < 2000 || saw_sinks.load(std::memory_order_relaxed) < 100) &&
       std::chrono::steady_clock::now() < deadline;
       ++round) {
    // Heap-allocated and freed the moment the scope ends: a capture still
    // reading them would be a use-after-free.
    auto phases = std::make_unique<telemetry::PhaseStats>();
    auto pmu = std::make_unique<profile::PmuPhaseStats>();
    auto board = std::make_unique<obs::ProgressBoard>();
    phases->add(telemetry::Phase::kRoundStep, 1);
    profile::CounterDelta delta;
    delta.wall_ns = 1;
    pmu->add(telemetry::Phase::kRoundStep, delta);
    obs::ProgressRecord record;
    record.engine = "hammer";
    record.publish_ns = 1;
    board->publish(board->claim("hammer", 1, 1, false, 1), record);
    {
      const telemetry::SinkScope scope(
          {.phases = phases.get(), .pmu = pmu.get(), .progress = board.get()});
      std::this_thread::yield();
    }
  }
  stop.store(true);
  scraper.join();
  EXPECT_GT(captures.load(), 0u);
  EXPECT_GT(saw_sinks.load(), 0u)
      << "no capture landed inside a scope; the race was never exercised";
}

TEST(ExporterActive, TracksLiveServers) {
  EXPECT_FALSE(obs::exporter_active());
  MetricsRegistry registry;
  {
    obs::ServerOptions options;
    options.listen = "127.0.0.1:0";
    options.registry = &registry;
    obs::IntrospectionServer server(options);
    ASSERT_TRUE(server.ok()) << server.error();
    EXPECT_TRUE(obs::exporter_active());
  }
  EXPECT_FALSE(obs::exporter_active());
}

TEST(Server, BadListenSpecFailsCleanly) {
  obs::ServerOptions options;
  options.listen = "not-an-address!";
  obs::IntrospectionServer server(options);
  EXPECT_FALSE(server.ok());
  EXPECT_FALSE(server.error().empty());
}

TEST(Server, PortCollisionFailsCleanly) {
  MetricsRegistry registry;
  obs::ServerOptions first;
  first.listen = "127.0.0.1:0";
  first.registry = &registry;
  obs::IntrospectionServer one(first);
  ASSERT_TRUE(one.ok());
  obs::ServerOptions second;
  second.listen = "127.0.0.1:" + std::to_string(one.port());
  second.registry = &registry;
  obs::IntrospectionServer two(second);
  EXPECT_FALSE(two.ok());
  EXPECT_FALSE(two.error().empty());
}

}  // namespace
}  // namespace bitspread
