#include "farm/status_bus.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "farm/wire.hpp"
#include "prof/prof.hpp"

namespace vpic::farm {

namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string fmt_double(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

std::string ok_json(bool ok, const std::string& error = {}) {
  if (ok) return "{\"ok\":true}";
  return "{\"ok\":false,\"error\":\"" + json_escape(error) + "\"}";
}

/// One vpic-bench-v1 record per job: its JobStatus plus every prof
/// counter recorded under the job's "job.<name>." scope.
std::string status_record(
    const JobStatus& s,
    const std::vector<std::pair<std::string, std::uint64_t>>& counters) {
  std::ostringstream os;
  os << "{\"bench\":\"farm_status\""
     << ",\"job\":\"" << json_escape(s.name) << "\""
     << ",\"state\":\"" << to_string(s.state) << "\""
     << ",\"step\":" << s.step
     << ",\"total_steps\":" << s.total_steps
     << ",\"priority\":" << s.priority
     << ",\"weight\":" << s.weight
     << ",\"slices\":" << s.slices
     << ",\"preemptions\":" << s.preemptions
     << ",\"restores\":" << s.restores
     << ",\"checkpoints\":" << s.checkpoints
     << ",\"rescales\":" << s.rescales
     << ",\"rescale_workers\":" << s.rescale_workers
     << ",\"rescale_tiles\":" << s.rescale_tiles
     << ",\"rescaled_at_step\":" << s.rescaled_at_step
     << ",\"vtime\":" << fmt_double(s.vtime)
     << ",\"field_energy\":" << fmt_double(s.field_energy)
     << ",\"kinetic\":[";
  for (std::size_t i = 0; i < s.kinetic.size(); ++i)
    os << (i ? "," : "") << fmt_double(s.kinetic[i]);
  os << "],\"latency_s\":" << fmt_double(s.latency_s);
  if (!s.error.empty())
    os << ",\"error\":\"" << json_escape(s.error) << "\"";
  const std::string prefix = "job." + s.name + ".";
  os << ",\"counters\":{";
  bool first = true;
  for (const auto& [name, value] : counters) {
    if (name.size() <= prefix.size() ||
        name.compare(0, prefix.size(), prefix) != 0)
      continue;
    os << (first ? "" : ",") << "\"" << json_escape(name.substr(prefix.size()))
       << "\":" << value;
    first = false;
  }
  os << "}}";
  return os.str();
}

}  // namespace

// ---- StatusBus ------------------------------------------------------

StatusBus::StatusBus(Scheduler& sched, std::uint16_t port) : sched_(sched) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw std::runtime_error("farm::StatusBus: socket() failed");
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // steering is local-only
  addr.sin_port = htons(port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listen_fd_, 8) != 0) {
    ::close(listen_fd_);
    throw std::runtime_error(
        std::string("farm::StatusBus: bind/listen failed: ") +
        std::strerror(errno));
  }
  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);
  acceptor_ = std::thread([this] { accept_loop(); });
}

StatusBus::~StatusBus() {
  {
    std::lock_guard lk(conn_mu_);
    stopping_ = true;
    // Unblocks accept(); recv() on live connections returns 0.
    ::shutdown(listen_fd_, SHUT_RDWR);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
  }
  acceptor_.join();
  for (auto& t : conn_threads_) t.join();
  for (int fd : conn_fds_) ::close(fd);
  ::close(listen_fd_);
}

void StatusBus::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    std::lock_guard lk(conn_mu_);
    if (stopping_) {
      if (fd >= 0) ::close(fd);
      return;
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listen socket gone
    }
    conn_fds_.push_back(fd);
    conn_threads_.emplace_back([this, fd] { serve(fd); });
  }
}

void StatusBus::serve(int fd) {
  std::string request;
  while (wire::recv_frame(fd, request)) {
    if (!wire::send_frame(fd, handle_command(request))) break;
  }
  // fd is closed by the destructor (which owns conn_fds_); a shutdown
  // here would be redundant.
}

std::string StatusBus::handle_command(const std::string& request) {
  std::istringstream is(request);
  std::string verb, job;
  is >> verb;
  if (verb == "ping") return "{\"ok\":true,\"pong\":true}";
  if (verb == "status") {
    const auto jobs = sched_.snapshot();
    const auto counters = prof::report().counters;
    std::ostringstream os;
    os << "{\"schema\":\"vpic-bench-v1\",\"bench\":\"farm_status\","
          "\"records\":[";
    for (std::size_t i = 0; i < jobs.size(); ++i)
      os << (i ? "," : "") << status_record(jobs[i], counters);
    os << "]}";
    return os.str();
  }
  if (verb == "rescale") {
    int workers = 0, tiles = 0;
    if (!(is >> job >> workers))
      return ok_json(false, "rescale: usage: rescale <job> <workers> [tiles]");
    is >> tiles;  // optional; stays 0 (auto) when absent
    return sched_.rescale(job, workers, tiles)
               ? ok_json(true)
               : ok_json(false,
                         "rescale: no such job, terminal state, or bad "
                         "worker count: '" + job + "'");
  }
  if (verb == "pause" || verb == "resume" || verb == "cancel" ||
      verb == "preempt" || verb == "prio") {
    if (!(is >> job))
      return ok_json(false, verb + ": missing job name");
    bool ok = false;
    if (verb == "pause") {
      ok = sched_.pause(job);
    } else if (verb == "resume") {
      ok = sched_.resume(job);
    } else if (verb == "preempt") {
      ok = sched_.preempt(job);
    } else if (verb == "cancel") {
      std::string flag;
      is >> flag;
      if (!flag.empty() && flag != "drop")
        return ok_json(false, "cancel: unknown flag '" + flag + "'");
      ok = sched_.cancel(job, flag == "drop");
    } else {  // prio
      int prio = 0;
      if (!(is >> prio))
        return ok_json(false, "prio: missing integer priority");
      ok = sched_.set_priority(job, prio);
    }
    return ok ? ok_json(true)
              : ok_json(false, verb + ": no such job or inapplicable state: '" +
                                   job + "'");
  }
  return ok_json(false, "unknown command: '" + verb + "'");
}

// ---- WireClient -----------------------------------------------------

WireClient::WireClient(std::uint16_t port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw std::runtime_error("farm::WireClient: socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd_);
    fd_ = -1;
    throw std::runtime_error("farm::WireClient: connect to 127.0.0.1:" +
                             std::to_string(port) + " failed: " +
                             std::strerror(errno));
  }
}

WireClient::~WireClient() {
  if (fd_ >= 0) ::close(fd_);
}

std::string WireClient::request(const std::string& command) {
  if (!wire::send_frame(fd_, command))
    throw std::runtime_error("farm::WireClient: send failed");
  std::string response;
  if (!wire::recv_frame(fd_, response))
    throw std::runtime_error("farm::WireClient: connection closed");
  return response;
}

}  // namespace vpic::farm
