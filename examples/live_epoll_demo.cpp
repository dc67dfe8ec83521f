// Live demo: the Hermes closed loop on REAL operating-system primitives.
//
//   * N worker processes fork()ed from the parent, each running a real
//     epoll(7) event loop and a real HTTP/1.1 parser;
//   * the Worker Status Table lives in real shared memory (MAP_SHARED),
//     updated lock-free by the workers exactly as in the paper's Fig. 9;
//   * each worker runs the embedded scheduler (Algo. 1) at the end of its
//     event loop and publishes the selection bitmap through an atomic in
//     shared memory (the stand-in for the eBPF map's kernel sharing);
//   * the parent process plays the kernel: it accept()s TCP connections,
//     mirrors the published bitmap into M_sel, executes the *verified*
//     eBPF dispatch program (Algo. 2) in the bpf VM, and ships the
//     accepted fd to the chosen worker over SCM_RIGHTS — the documented
//     substitution for SO_ATTACH_REUSEPORT_EBPF (DESIGN.md §2).
//
// The demo then acts as its own client: it opens connections, tallies
// which worker served each, wedges one worker via a slow endpoint, and
// shows Hermes steering new connections away until the worker recovers.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/control.h"
#include "core/hermes.h"
#include "http/parser.h"
#include "http/response.h"
#include "http/response_parser.h"
#include "netsim/four_tuple.h"
#include "shm/fd_channel.h"
#include "shm/shm_region.h"

using namespace hermes;

namespace {

constexpr uint32_t kWorkers = 4;

SimTime now_mono() {
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return SimTime::nanos(ts.tv_sec * 1'000'000'000ll + ts.tv_nsec);
}

// Shared control block appended after the WST in the shm region: the
// published worker-selection bitmap (the "eBPF map" surrogate).
struct SharedControl {
  std::atomic<uint64_t> bitmap{~0ull};
};

size_t shm_bytes() {
  return core::WorkerStatusTable::required_bytes(kWorkers) + 64;
}
SharedControl* control_of(void* shm_base) {
  return reinterpret_cast<SharedControl*>(
      static_cast<char*>(shm_base) +
      core::WorkerStatusTable::required_bytes(kWorkers));
}

// ---------------------------------------------------------------- worker

[[noreturn]] void worker_main(WorkerId id, void* shm_base,
                              shm::FdChannel channel) {
  const int channel_fd = channel.raw_fd();
  auto wst = core::WorkerStatusTable::attach(shm_base);
  core::EventLoopHooks hooks(wst, id);
  SharedControl* ctl = control_of(shm_base);

  core::HermesConfig cfg;
  cfg.hang_threshold = SimTime::millis(150);
  core::Scheduler scheduler(cfg);
  core::PolicyEndpoint policy(scheduler);  // Appendix-C control plane

  const int ep = epoll_create1(0);
  struct epoll_event ev {};
  ev.events = EPOLLIN;
  ev.data.fd = channel_fd;
  epoll_ctl(ep, EPOLL_CTL_ADD, channel_fd, &ev);

  std::map<int, http::RequestParser> parsers;

  // The modified epoll event loop of Fig. 9, on the real epoll.
  struct epoll_event events[64];
  for (;;) {
    hooks.on_loop_enter(now_mono());                       // line 12
    const int n = epoll_wait(ep, events, 64, /*timeout=*/50);
    if (n < 0 && errno == EINTR) continue;
    hooks.on_events_returned(n);                           // line 14

    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == channel_fd) {
        // "accept": receive a dispatched connection fd from the kernel.
        const auto got = channel.recv_fd();
        if (!got) _exit(0);  // parent gone
        const int conn_fd = got->first;
        struct epoll_event cev {};
        cev.events = EPOLLIN;
        cev.data.fd = conn_fd;
        epoll_ctl(ep, EPOLL_CTL_ADD, conn_fd, &cev);
        parsers.emplace(conn_fd, http::RequestParser{});
        hooks.on_conn_open();                              // line 25
      } else {
        // Data on an established connection.
        char buf[4096];
        const ssize_t r = read(fd, buf, sizeof(buf));
        if (r <= 0) {
          epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
          close(fd);
          parsers.erase(fd);
          hooks.on_conn_close();                           // line 37
        } else {
          auto& parser = parsers[fd];
          std::string_view data{buf, static_cast<size_t>(r)};
          while (!data.empty()) {
            data.remove_prefix(parser.feed(data));
            if (parser.failed()) break;
            if (!parser.has_request()) break;
            const http::Request req = parser.take();
            // A "/stall" request wedges this worker (stuck read loop).
            if (req.path.starts_with("/stall")) {
              usleep(1'500'000);  // 1.5 s inside the loop: a real hang
            }
            http::Response resp;
            if (req.path.starts_with("/policy")) {
              resp = policy.handle(req);  // live scheduler policy updates
            } else {
              resp.set_body("ok");
            }
            resp.add_header("X-Worker", std::to_string(id))
                .add_header("Connection", "close");
            const std::string wire = resp.serialize();
            (void)!write(fd, wire.data(), wire.size());
            // Connection: close — tear the connection down.
            epoll_ctl(ep, EPOLL_CTL_DEL, fd, nullptr);
            close(fd);
            parsers.erase(fd);
            hooks.on_conn_close();
            break;
          }
        }
      }
      hooks.on_event_processed();                          // line 18
    }

    // schedule_and_sync() at the end of the loop (line 20): every worker
    // runs the cascade and publishes the bitmap (last write wins).
    const auto res = scheduler.schedule(wst, now_mono(), 0, kWorkers);
    ctl->bitmap.store(res.bitmap, std::memory_order_release);
  }
}

// --------------------------------------------------------------- client

// Open one connection, send a GET, return the X-Worker id (or -1).
int probe_once(uint16_t port, const char* path) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  char req[128];
  const int len = std::snprintf(req, sizeof(req),
                                "GET %s HTTP/1.1\r\nHost: demo\r\n\r\n", path);
  (void)!write(fd, req, static_cast<size_t>(len));
  char buf[512];
  ssize_t total = 0, r;
  while (total < static_cast<ssize_t>(sizeof(buf) - 1) &&
         (r = read(fd, buf + total, sizeof(buf) - 1 - total)) > 0) {
    total += r;
  }
  close(fd);
  const auto resp =
      http::parse_response({buf, static_cast<size_t>(total)});
  if (!resp || resp->status != 200) return -1;
  const auto worker = resp->header("x-worker");
  return worker ? std::atoi(std::string{*worker}.c_str()) : -1;
}

}  // namespace

int main() {
  signal(SIGPIPE, SIG_IGN);
  setvbuf(stdout, nullptr, _IONBF, 0);
  std::printf("== live demo: real processes, real epoll, real shm WST,"
              " verified eBPF dispatch ==\n\n");

  // Shared memory: WST + control block.
  auto region = shm::ShmRegion::create_anonymous(shm_bytes());
  auto wst = core::WorkerStatusTable::init(region.data(), kWorkers);
  (void)wst;
  new (control_of(region.data())) SharedControl{};

  // Fork workers, each with an SCM_RIGHTS channel.
  std::vector<shm::FdChannel> channels;
  std::vector<pid_t> pids;
  for (WorkerId w = 0; w < kWorkers; ++w) {
    auto [parent_end, child_end] = shm::FdChannel::make_pair();
    const pid_t pid = fork();
    if (pid == 0) {
      parent_end.close();
      worker_main(w, region.data(), std::move(child_end));
    }
    child_end.close();
    channels.push_back(std::move(parent_end));
    pids.push_back(pid);
  }

  // The "kernel" side: listening socket + the verified dispatch program.
  core::HermesRuntime::Options opts;
  opts.num_workers = kWorkers;
  core::HermesRuntime runtime(opts);
  std::vector<uint64_t> cookies;
  for (WorkerId w = 0; w < kWorkers; ++w) cookies.push_back(9000 + w);
  core::PortAttachment att = runtime.attach_port(cookies);
  std::printf("dispatch program: %zu eBPF instructions, verifier PASSED\n",
              att.program->insns().size());

  const int listen_fd = socket(AF_INET, SOCK_STREAM, 0);
  const int one = 1;
  setsockopt(listen_fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  struct sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  if (bind(listen_fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      listen(listen_fd, 128) != 0) {
    std::perror("bind/listen");
    return 1;
  }
  socklen_t alen = sizeof(addr);
  getsockname(listen_fd, reinterpret_cast<sockaddr*>(&addr), &alen);
  const uint16_t port = ntohs(addr.sin_port);
  std::printf("acceptor listening on 127.0.0.1:%u, %u workers forked\n\n",
              port, kWorkers);

  SharedControl* ctl = control_of(region.data());

  // Acceptor child: accept -> run dispatch program -> SCM_RIGHTS to worker.
  const pid_t acceptor = fork();
  if (acceptor == 0) {
    uint32_t salt = 0;
    for (;;) {
      struct sockaddr_in peer {};
      socklen_t plen = sizeof(peer);
      const int conn =
          accept(listen_fd, reinterpret_cast<sockaddr*>(&peer), &plen);
      if (conn < 0) {
        if (errno == EINTR) continue;
        _exit(0);
      }
      // Mirror the userspace-published bitmap into M_sel, then run the
      // verified program with the connection's real 4-tuple hash.
      runtime.sel_map().store_u64(
          0, ctl->bitmap.load(std::memory_order_acquire));
      netsim::FourTuple t;
      t.saddr = ntohl(peer.sin_addr.s_addr);
      t.daddr = 0x7f000001;
      t.sport = ntohs(peer.sin_port);
      t.dport = port;
      bpf::ReuseportCtx ctx;
      ctx.hash = netsim::skb_hash(t, salt);
      const auto res = runtime.vm().run(*att.program, ctx);
      WorkerId target;
      if (res.ret == bpf::kRetUseSelection && ctx.selection_made) {
        target = static_cast<WorkerId>(ctx.selected_socket - 9000);
      } else {
        target = netsim::reciprocal_scale(ctx.hash, kWorkers);  // fallback
      }
      channels[target].send_fd(conn);
      close(conn);
      ++salt;
    }
  }

  // ---- client phases ---------------------------------------------------
  usleep(200'000);  // let workers settle

  auto tally = [&](int n, const char* label) {
    std::map<int, int> dist;
    for (int i = 0; i < n; ++i) dist[probe_once(port, "/")]++;
    std::printf("%-34s", label);
    for (WorkerId w = 0; w < kWorkers; ++w) {
      std::printf("  W%u:%-4d", w, dist.count(w) ? dist[w] : 0);
    }
    if (dist.count(-1)) std::printf("  errors:%d", dist[-1]);
    std::printf("\n");
    return dist;
  };

  tally(120, "phase 1: all workers healthy");

  // Wedge one worker: fire a /stall request and don't wait for the reply —
  // the serving worker sleeps 1.5 s inside its event loop (a real hang).
  std::printf("\n>>> sending /stall (wedges one worker for 1.5 s)\n");
  {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in a2 = addr;
    if (connect(fd, reinterpret_cast<sockaddr*>(&a2), sizeof(a2)) == 0) {
      const char* req = "GET /stall HTTP/1.1\r\nHost: demo\r\n\r\n";
      (void)!write(fd, req, std::strlen(req));
    }
    usleep(350'000);  // FilterTime threshold (150 ms) comfortably exceeded
    auto dist = tally(120, "phase 2: one worker wedged");
    int starved = 120;
    for (WorkerId w = 0; w < kWorkers; ++w) {
      starved = std::min(starved, dist.count(w) ? dist[w] : 0);
    }
    std::printf("    (least-served worker got %d of 120 — the wedged one;"
                " bitmap=0x%lx)\n",
                starved, (unsigned long)ctl->bitmap.load());
    close(fd);
  }

  usleep(1'700'000);  // let the wedge clear and the bitmap recover
  tally(120, "phase 3: worker recovered");

  // Phase 4: the Appendix-C control plane — query live scheduler policy
  // over HTTP (any worker answers; production would broadcast updates).
  {
    const int fd = socket(AF_INET, SOCK_STREAM, 0);
    struct sockaddr_in a2 = addr;
    std::string policy_json = "(unreachable)";
    if (connect(fd, reinterpret_cast<sockaddr*>(&a2), sizeof(a2)) == 0) {
      const char* req = "GET /policy HTTP/1.1\r\nHost: demo\r\n\r\n";
      (void)!write(fd, req, std::strlen(req));
      char buf[1024];
      ssize_t total = 0, r;
      while (total < (ssize_t)sizeof(buf) - 1 &&
             (r = read(fd, buf + total, sizeof(buf) - 1 - total)) > 0) {
        total += r;
      }
      const auto resp =
          http::parse_response({buf, static_cast<size_t>(total)});
      if (resp) policy_json = resp->body;
    }
    close(fd);
    std::printf("\nphase 4: GET /policy ->  %s\n", policy_json.c_str());
  }

  std::printf("\nshutting down.\n");
  kill(acceptor, SIGKILL);
  for (pid_t p : pids) kill(p, SIGKILL);
  while (wait(nullptr) > 0) {
  }
  return 0;
}
