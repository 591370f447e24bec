// Minimal blocking client for the serve line protocol — used by the
// tests and the chaos harness. One outstanding request
// per client: Call() writes a line and blocks for the response line,
// which is exactly the synchronous discipline the monotone-version
// guarantee of DESIGN.md section 10 is stated for.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "common/json.h"
#include "common/status.h"

namespace vadalink::serve {

class Client {
 public:
  /// Connects to host:port. The read timeout bounds every ReadLine().
  static Result<Client> Connect(const std::string& host, int port,
                                int64_t read_timeout_ms = 10000);

  Client() = default;
  ~Client();
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Sends one raw line (newline appended).
  Status SendLine(const std::string& line);

  /// Blocks for the next response line (without the newline).
  Result<std::string> ReadLine();

  /// Round trip: builds {id, op, params, deadline_ms?}, sends it, parses
  /// the response object. The id is assigned monotonically per client;
  /// a response carrying a different id is an error (synchronous use).
  Result<Json> Call(const std::string& op, Json params,
                    std::optional<int64_t> deadline_ms = std::nullopt);

 private:
  int fd_ = -1;
  int64_t read_timeout_ms_ = 10000;
  int64_t next_id_ = 1;
  std::string buffer_;  // bytes past the last returned line
};

}  // namespace vadalink::serve
