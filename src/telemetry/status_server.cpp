#include "telemetry/status_server.hpp"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string_view>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "telemetry/exporters.hpp"

namespace ahbp::telemetry {

namespace {

/// Applies a receive/send timeout so one stuck client cannot wedge the
/// single-threaded accept loop (or a test against a dead server).
void set_io_timeout(int fd, double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - static_cast<double>(tv.tv_sec)) * 1e6);
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
}

bool send_all(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = ::send(fd, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(n));
  }
  return true;
}

const char* reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 500: return "Internal Server Error";
    default: return "";
  }
}

void send_response(int fd, int status, const std::string& content_type,
                   const std::string& body) {
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                     reason_phrase(status) +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  if (send_all(fd, head)) send_all(fd, body);
}

/// Parses "after=N" from a query string. Absent = 0 (full tail); a
/// non-numeric value is a client error, reported as false -> 400.
bool parse_after(std::string_view query, std::uint64_t& after) {
  after = 0;
  while (!query.empty()) {
    const std::size_t amp = query.find('&');
    const std::string_view pair = query.substr(0, amp);
    if (pair.size() >= 6 && pair.substr(0, 6) == "after=") {
      if (pair.size() == 6) return false;
      std::uint64_t v = 0;
      for (const char c : pair.substr(6)) {
        if (c < '0' || c > '9') return false;
        v = v * 10 + static_cast<std::uint64_t>(c - '0');
      }
      after = v;
      return true;
    }
    if (amp == std::string_view::npos) break;
    query.remove_prefix(amp + 1);
  }
  return true;
}

}  // namespace

HttpResponse http_get(std::uint16_t port, const std::string& path,
                      double timeout_seconds) {
  HttpResponse res;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return res;
  set_io_timeout(fd, timeout_seconds);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return res;
  }
  const std::string request = "GET " + path +
                              " HTTP/1.1\r\nHost: 127.0.0.1\r\n"
                              "Connection: close\r\n\r\n";
  if (!send_all(fd, request)) {
    ::close(fd);
    return res;
  }
  std::string raw;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    raw.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);

  // "HTTP/1.1 200 OK\r\n<headers>\r\n\r\n<body>"
  if (raw.compare(0, 5, "HTTP/") != 0) return res;
  const std::size_t sp = raw.find(' ');
  if (sp == std::string::npos || sp + 4 > raw.size()) return res;
  res.status = std::atoi(raw.c_str() + sp + 1);
  const std::size_t head_end = raw.find("\r\n\r\n");
  if (head_end == std::string::npos) {
    res.status = 0;
    return res;
  }
  const std::string head = raw.substr(0, head_end);
  std::size_t ct = head.find("Content-Type: ");
  if (ct != std::string::npos) {
    ct += 14;
    res.content_type = head.substr(ct, head.find("\r\n", ct) - ct);
  }
  res.body = raw.substr(head_end + 4);
  return res;
}

StatusServer::StatusServer(Config cfg) : cfg_(std::move(cfg)) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw std::runtime_error(std::string("status server: socket() failed: ") +
                             std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(cfg_.port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(listen_fd_, 16) != 0) {
    const std::string why = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("status server: cannot bind 127.0.0.1:" +
                             std::to_string(cfg_.port) + ": " + why);
  }
  socklen_t len = sizeof addr;
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len);
  port_ = ntohs(addr.sin_port);
  if (::pipe(wake_fd_) != 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw std::runtime_error("status server: pipe() failed");
  }
  ::fcntl(wake_fd_[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(wake_fd_[1], F_SETFD, FD_CLOEXEC);
  ::fcntl(listen_fd_, F_SETFD, FD_CLOEXEC);
  thread_ = std::thread([this] { serve(); });
}

StatusServer::~StatusServer() { stop(); }

void StatusServer::stop() {
  if (!stopping_.exchange(true)) {
    // Wake the poll() so the thread observes the flag promptly.
    if (wake_fd_[1] >= 0) {
      const char byte = 0;
      [[maybe_unused]] const ssize_t n = ::write(wake_fd_[1], &byte, 1);
    }
  }
  if (thread_.joinable()) thread_.join();
  for (int* fd : {&listen_fd_, &wake_fd_[0], &wake_fd_[1]}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
}

void StatusServer::serve() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {wake_fd_[0], POLLIN, 0}};
    const int n = ::poll(fds, 2, 200);
    if (n <= 0) continue;  // timeout / EINTR: re-check the stop flag
    if ((fds[1].revents & POLLIN) != 0) return;  // stop() woke us
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) continue;
    set_io_timeout(client, 2.0);
    handle(client);
    // A process forked meanwhile (a campaign worker) holds a copy of
    // `client`; close() alone would keep the connection open, and the
    // client waiting for EOF, until that process exits. shutdown() ends
    // it for every copy.
    ::shutdown(client, SHUT_WR);
    ::close(client);
  }
}

void StatusServer::handle(int fd) {
  // Read until the end of the request head (we never accept bodies).
  std::string req;
  char chunk[2048];
  while (req.find("\r\n\r\n") == std::string::npos && req.size() < 16384) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    req.append(chunk, static_cast<std::size_t>(n));
  }
  const std::size_t line_end = req.find("\r\n");
  if (line_end == std::string::npos) {
    send_response(fd, 400, "application/json",
                  "{\"error\": \"malformed request\"}\n");
    return;
  }
  // "GET <target> HTTP/1.1"
  const std::string line = req.substr(0, line_end);
  const std::size_t sp1 = line.find(' ');
  const std::size_t sp2 = line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1 ||
      line.compare(sp2 + 1, 5, "HTTP/") != 0) {
    send_response(fd, 400, "application/json",
                  "{\"error\": \"malformed request\"}\n");
    return;
  }
  if (line.substr(0, sp1) != "GET") {
    send_response(fd, 400, "application/json",
                  "{\"error\": \"only GET is supported\"}\n");
    return;
  }
  const std::string target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  const std::size_t q = target.find('?');
  const std::string path = target.substr(0, q);
  const std::string query =
      q == std::string::npos ? std::string() : target.substr(q + 1);

  try {
    if (path == "/status" && cfg_.status_json) {
      send_response(fd, 200, "application/json", cfg_.status_json());
    } else if (path == "/metrics" && cfg_.metrics_text) {
      send_response(fd, 200, "text/plain; version=0.0.4",
                    cfg_.metrics_text());
    } else if (path == "/events" && cfg_.events_jsonl) {
      std::uint64_t after = 0;
      if (!parse_after(query, after)) {
        send_response(fd, 400, "application/json",
                      "{\"error\": \"bad after parameter\"}\n");
      } else {
        send_response(fd, 200, "application/x-ndjson",
                      cfg_.events_jsonl(after));
      }
    } else {
      send_response(fd, 404, "application/json",
                    "{\"error\": \"not found\"}\n");
    }
  } catch (const std::exception& e) {
    send_response(fd, 500, "application/json",
                  "{\"error\": \"" + json_escape(e.what()) + "\"}\n");
  }
}

}  // namespace ahbp::telemetry
