// The introspection server: a dependency-free blocking HTTP/1.1 endpoint
// any binary can start with --listen=<addr:port>.
//
// Endpoints (GET only):
//   /metrics   Prometheus text exposition of capture_metrics() (snapshot.h).
//   /healthz   JSON liveness: status, uptime, scrape count, build gates,
//              run counts.
//   /progress  JSON ("bitspread-progress/1"): one record per progress-board
//              slot with round, X_t, drift, rounds/sec, ETA, fault state.
//   /stream    Chunked live per-round JSONL, teed from the engines'
//              record_round() feed via a StreamHub. `?lines=N` closes the
//              response after N lines (CI scrapes 5 and exits).
//
// Threading: one accept thread; each connection is handled on its own
// (tracked, joined) thread so a slow /stream subscriber never blocks a
// /metrics scrape. Sockets carry short send/receive timeouts, and stop()
// (or the destructor) closes the listen socket plus every open connection
// and joins everything — no detached threads survive the scope that owns
// the server.
//
// The server only READS: every scrape is capture_metrics() plus rendering.
// It installs nothing; the owning FlightRecorderScope decides which sinks
// and boards exist. Port 0 binds an ephemeral port (the chosen one is in
// port() and in the "[obs] listening on ..." stderr line CI parses).
#ifndef BITSPREAD_OBS_SERVER_H_
#define BITSPREAD_OBS_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "telemetry/telemetry.h"

namespace bitspread {
namespace obs {

class ProgressBoard;

// Tees the engines' per-round feed: forwards every on_round() to an inner
// sink (the --stream-out= file RoundStream, when present), and fans the
// formatted JSONL line out to any live /stream subscribers. With no
// subscribers the tee costs one relaxed load per round beyond the inner
// forward. Subscriber queues are bounded; a stalled client drops oldest
// lines (counted) instead of back-pressuring the simulation.
class StreamHub : public telemetry::RoundSink {
 public:
  static constexpr std::size_t kQueueCap = 4096;

  struct Subscription {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<std::string> lines;
    std::uint64_t dropped = 0;
    bool closed = false;
  };

  // The file stream the hub forwards to first (nullptr = tee only).
  void set_inner(telemetry::RoundSink* inner) noexcept { inner_ = inner; }

  void on_round(std::uint64_t round, std::uint64_t ones,
                std::uint64_t n) override;

  std::shared_ptr<Subscription> subscribe();
  void unsubscribe(const std::shared_ptr<Subscription>& subscription);
  // Wakes and closes every subscriber (server shutdown).
  void close_all();

  std::uint64_t rounds_seen() const noexcept {
    return rounds_seen_.load(std::memory_order_relaxed);
  }

 private:
  telemetry::RoundSink* inner_ = nullptr;
  std::atomic<std::uint64_t> rounds_seen_{0};
  std::atomic<int> subscriber_count_{0};
  std::mutex mutex_;
  std::vector<std::shared_ptr<Subscription>> subscriptions_;
};

struct ServerOptions {
  std::string listen;  // "addr:port", ":port", or bare "port" (127.0.0.1).
  StreamHub* hub = nullptr;  // nullptr = /stream returns 503.
};

class IntrospectionServer {
 public:
  explicit IntrospectionServer(ServerOptions options);
  ~IntrospectionServer();
  IntrospectionServer(const IntrospectionServer&) = delete;
  IntrospectionServer& operator=(const IntrospectionServer&) = delete;

  // False when bind/listen failed; error() says why. A failed server has no
  // threads and stop() is a no-op.
  bool ok() const noexcept { return ok_; }
  const std::string& error() const noexcept { return error_; }

  // The bound address ("127.0.0.1") and port (resolved when 0 was asked).
  const std::string& address() const noexcept { return address_; }
  std::uint16_t port() const noexcept { return port_; }

  std::uint64_t scrapes() const noexcept {
    return scrapes_.load(std::memory_order_relaxed);
  }

  // Idempotent; also run by the destructor.
  void stop();

 private:
  void accept_loop();
  void handle_connection(int fd);
  void serve_stream(int fd, std::uint64_t line_limit);
  void reap_finished_handlers();

  ServerOptions options_;
  bool ok_ = false;
  std::string error_;
  std::string address_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  std::uint64_t start_ns_ = 0;
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> scrapes_{0};
  std::thread accept_thread_;
  std::mutex handlers_mutex_;
  struct Handler {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
    std::shared_ptr<std::atomic<int>> fd;
  };
  std::vector<Handler> handlers_;
};

// True while any IntrospectionServer in the process is up. Benches stamp
// this into their reports (exporter_active) so bench_history.py never gates
// throughput rows taken with a live exporter attached.
bool exporter_active() noexcept;

}  // namespace obs
}  // namespace bitspread

#endif  // BITSPREAD_OBS_SERVER_H_
