#include "serve/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace pbitree {
namespace serve {

namespace {

bool ValidToken(std::string_view s, bool allow_eq) {
  if (s.empty()) return false;
  for (char c : s) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') return false;
    if (!allow_eq && c == '=') return false;
  }
  return true;
}

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

StatusOr<std::string> EncodeRequest(const Request& r) {
  if (!ValidToken(r.op, /*allow_eq=*/false)) {
    return Status::InvalidArgument("request op is not a bare token: '" + r.op +
                                   "'");
  }
  std::string line = r.op;
  for (const auto& [key, value] : r.params) {
    if (!ValidToken(key, /*allow_eq=*/false) ||
        !ValidToken(value, /*allow_eq=*/true)) {
      return Status::InvalidArgument("request param '" + key + "'='" + value +
                                     "' is not token-safe");
    }
    line += ' ';
    line += key;
    line += '=';
    line += value;
  }
  return line;
}

StatusOr<Request> ParseRequest(std::string_view line) {
  Request r;
  size_t pos = 0;
  while (pos < line.size()) {
    size_t end = line.find(' ', pos);
    if (end == std::string_view::npos) end = line.size();
    std::string_view tok = line.substr(pos, end - pos);
    pos = end + 1;
    if (tok.empty()) continue;
    if (r.op.empty()) {
      if (tok.find('=') != std::string_view::npos) {
        return Status::InvalidArgument("request line starts with a parameter");
      }
      r.op = tok;
      continue;
    }
    size_t eq = tok.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      return Status::InvalidArgument("malformed request param: '" +
                                     std::string(tok) + "'");
    }
    r.params[std::string(tok.substr(0, eq))] = std::string(tok.substr(eq + 1));
  }
  if (r.op.empty()) return Status::InvalidArgument("empty request line");
  return r;
}

std::string EncodeDone(const JoinSummary& s) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "pairs=%llu page_reads=%llu page_writes=%llu "
                "wall_seconds=%.6f alg=%s",
                static_cast<unsigned long long>(s.pairs),
                static_cast<unsigned long long>(s.page_reads),
                static_cast<unsigned long long>(s.page_writes), s.wall_seconds,
                s.algorithm.c_str());
  return buf;
}

StatusOr<JoinSummary> ParseDone(std::string_view payload) {
  PBITREE_ASSIGN_OR_RETURN(Request r,
                           ParseRequest("done " + std::string(payload)));
  JoinSummary s;
  try {
    s.pairs = std::stoull(r.params.at("pairs"));
    s.page_reads = std::stoull(r.params.at("page_reads"));
    s.page_writes = std::stoull(r.params.at("page_writes"));
    s.wall_seconds = std::stod(r.params.at("wall_seconds"));
    s.algorithm = r.params.at("alg");
  } catch (const std::exception&) {
    return Status::Internal("malformed done frame: '" + std::string(payload) +
                            "'");
  }
  return s;
}

std::string EncodeError(const Status& st) {
  return std::to_string(static_cast<int>(st.code())) + " " + st.message();
}

Status DecodeError(std::string_view payload) {
  size_t sp = payload.find(' ');
  std::string_view code_part = payload.substr(0, sp);
  std::string message(sp == std::string_view::npos ? ""
                                                   : payload.substr(sp + 1));
  int code = 0;
  try {
    code = std::stoi(std::string(code_part));
  } catch (const std::exception&) {
    return Status::Internal("malformed error frame: '" + std::string(payload) +
                            "'");
  }
  // kUnimplemented is the enum's last code.
  if (code <= 0 || code > static_cast<int>(StatusCode::kUnimplemented)) {
    return Status::Internal("error frame with unknown status code " +
                            std::string(code_part) + ": " + message);
  }
  return Status(static_cast<StatusCode>(code), std::move(message));
}

Status WriteFull(int fd, const void* buf, size_t n) {
  const char* p = static_cast<const char*>(buf);
  while (n > 0) {
    ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("socket write"));
    }
    p += w;
    n -= static_cast<size_t>(w);
  }
  return Status::OK();
}

Status ReadFull(int fd, void* buf, size_t n, bool* clean_eof) {
  if (clean_eof != nullptr) *clean_eof = false;
  char* p = static_cast<char*>(buf);
  size_t got = 0;
  while (got < n) {
    ssize_t r = ::recv(fd, p + got, n - got, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(Errno("socket read"));
    }
    if (r == 0) {
      if (got == 0 && clean_eof != nullptr) *clean_eof = true;
      return Status::IOError(got == 0 ? "connection closed"
                                      : "connection closed mid-frame");
    }
    got += static_cast<size_t>(r);
  }
  return Status::OK();
}

namespace {

Status WriteHeaderAndPayload(int fd, FrameType type, const void* payload,
                             size_t n) {
  if (n > kMaxFrameBytes) {
    return Status::InvalidArgument("frame payload too large");
  }
  // One buffered write per frame: header and payload land in a single
  // send() so concurrent frames from other connections (distinct fds)
  // can never interleave inside this one.
  std::string frame;
  frame.reserve(5 + n);
  uint32_t len = static_cast<uint32_t>(n);
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.push_back(static_cast<char>(type));
  frame.append(static_cast<const char*>(payload), n);
  return WriteFull(fd, frame.data(), frame.size());
}

}  // namespace

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  return WriteHeaderAndPayload(fd, type, payload.data(), payload.size());
}

Status WritePairsFrame(int fd, std::span<const ResultPair> pairs) {
  return WriteHeaderAndPayload(fd, FrameType::kPairs, pairs.data(),
                               pairs.size_bytes());
}

Status ReadFrame(int fd, FrameType* type, std::string* payload) {
  uint32_t len = 0;
  PBITREE_RETURN_IF_ERROR(ReadFull(fd, &len, sizeof(len)));
  if (len > kMaxFrameBytes) {
    return Status::Corruption("response frame length " + std::to_string(len) +
                              " exceeds limit");
  }
  uint8_t t = 0;
  PBITREE_RETURN_IF_ERROR(ReadFull(fd, &t, sizeof(t)));
  if (t > static_cast<uint8_t>(FrameType::kText)) {
    return Status::Corruption("unknown response frame type " +
                              std::to_string(t));
  }
  *type = static_cast<FrameType>(t);
  payload->resize(len);
  if (len > 0) PBITREE_RETURN_IF_ERROR(ReadFull(fd, payload->data(), len));
  return Status::OK();
}

Status WriteRequestFrame(int fd, const Request& r) {
  PBITREE_ASSIGN_OR_RETURN(std::string line, EncodeRequest(r));
  if (line.size() > kMaxFrameBytes) {
    return Status::InvalidArgument("request line too large");
  }
  std::string frame;
  frame.reserve(4 + line.size());
  uint32_t len = static_cast<uint32_t>(line.size());
  frame.append(reinterpret_cast<const char*>(&len), sizeof(len));
  frame.append(line);
  return WriteFull(fd, frame.data(), frame.size());
}

Status ReadRequestFrame(int fd, Request* out, bool* clean_eof) {
  uint32_t len = 0;
  PBITREE_RETURN_IF_ERROR(ReadFull(fd, &len, sizeof(len), clean_eof));
  if (len > kMaxFrameBytes) {
    return Status::Corruption("request frame length " + std::to_string(len) +
                              " exceeds limit");
  }
  std::string line(len, '\0');
  if (len > 0) PBITREE_RETURN_IF_ERROR(ReadFull(fd, line.data(), len));
  PBITREE_ASSIGN_OR_RETURN(*out, ParseRequest(line));
  return Status::OK();
}

}  // namespace serve
}  // namespace pbitree
