#include "fabric/spool.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <system_error>

#include "core/wire.hpp"

namespace mra::fabric {

namespace fs = std::filesystem;

std::vector<Lease> partition_leases(std::uint64_t jobs, std::uint64_t chunk) {
  if (chunk == 0) {
    throw std::invalid_argument("partition_leases: chunk must be >= 1");
  }
  std::vector<Lease> leases;
  leases.reserve(static_cast<std::size_t>((jobs + chunk - 1) / chunk));
  for (std::uint64_t first = 0; first < jobs; first += chunk) {
    Lease l;
    l.id = first / chunk;
    l.first = first;
    l.count = std::min(chunk, jobs - first);
    l.fence = 0;
    leases.push_back(l);
  }
  return leases;
}

void ensure_spool_dirs(const SpoolPaths& paths) {
  std::error_code ec;
  fs::create_directories(paths.claims_dir(), ec);
  if (!ec) fs::create_directories(paths.results_dir(), ec);
  if (ec) {
    throw std::runtime_error("spool: cannot create '" + paths.root +
                             "': " + ec.message());
  }
}

void write_file_atomic(const std::string& path, std::string_view content,
                       std::string_view tmp_suffix) {
  const std::string tmp = path + ".tmp." + std::string(tmp_suffix);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("spool: cannot open '" + tmp + "' for write");
    }
    out.write(content.data(), static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("spool: short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    std::error_code ec;
    fs::remove(tmp, ec);
    throw std::runtime_error("spool: rename '" + tmp + "' -> '" + path +
                             "' failed: " + std::strerror(err));
  }
}

std::optional<std::string> read_file(const std::string& path) {
  // The open's own errno decides "absent": a path that did not exist when
  // opened reads as absent even if a writer renames it into place before
  // any later check could look (polling readers race those renames).
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    const int err = errno;
    if (err == ENOENT) return std::nullopt;
    throw std::runtime_error("spool: cannot open '" + path +
                             "' for read: " + std::strerror(err));
  }
  std::string text;
  char buf[16 * 1024];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) text.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) {
    throw std::runtime_error("spool: read error on '" + path + "'");
  }
  return text;
}

void append_checkpoint(const SpoolPaths& paths, const Lease& lease) {
  const std::string line = "done " + std::to_string(lease.first) + " " +
                           std::to_string(lease.count) + "\n";
  std::FILE* f = std::fopen(paths.checkpoint().c_str(), "ab");
  if (f == nullptr) {
    throw std::runtime_error("spool: cannot open checkpoint '" +
                             paths.checkpoint() + "' for append");
  }
  const bool ok =
      std::fwrite(line.data(), 1, line.size(), f) == line.size() &&
      std::fflush(f) == 0;
  std::fclose(f);
  if (!ok) {
    throw std::runtime_error("spool: short append to checkpoint '" +
                             paths.checkpoint() + "'");
  }
}

std::vector<std::uint64_t> load_checkpoint(const SpoolPaths& paths,
                                           std::uint64_t chunk) {
  if (chunk == 0) {
    throw std::invalid_argument("load_checkpoint: chunk must be >= 1");
  }
  const std::optional<std::string> text = read_file(paths.checkpoint());
  std::vector<std::uint64_t> done;
  if (!text) return done;
  std::size_t pos = 0;
  while (pos < text->size()) {
    const std::size_t eol = text->find('\n', pos);
    if (eol == std::string::npos) break;  // partial trailing line: ignore
    const std::string_view line(text->data() + pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    wire::Cursor c(line, "fabric wire");
    c.expect("done ");
    const std::uint64_t first = c.read_u64();
    c.expect(" ");
    const std::uint64_t count = c.read_u64();
    if (!c.at_end() || count == 0) {
      throw std::runtime_error("spool: malformed checkpoint line '" +
                               std::string(line) + "'");
    }
    done.push_back(first / chunk);
  }
  return done;
}

void write_result_file(const SpoolPaths& paths, const LeaseResult& result,
                       std::string_view tmp_suffix) {
  if (result.payloads.size() != result.lease.count) {
    throw std::invalid_argument("spool: lease " +
                                std::to_string(result.lease.id) + " carries " +
                                std::to_string(result.payloads.size()) +
                                " payloads for " +
                                std::to_string(result.lease.count) + " jobs");
  }
  std::string text = "{\"lease\":" + std::to_string(result.lease.id);
  text += ",\"first\":" + std::to_string(result.lease.first);
  text += ",\"count\":" + std::to_string(result.lease.count);
  text += ",\"fence\":" + std::to_string(result.lease.fence);
  text += "}\n";
  for (const std::string& payload : result.payloads) {
    text += payload;
    text += '\n';
  }
  write_file_atomic(paths.result(result.lease.id), text, tmp_suffix);
}

std::optional<LeaseResult> read_result_file(const SpoolPaths& paths,
                                            std::uint64_t lease_id) {
  const std::optional<std::string> text =
      read_file(paths.result(lease_id));
  if (!text) return std::nullopt;
  const std::size_t header_end = text->find('\n');
  if (header_end == std::string::npos) return std::nullopt;
  LeaseResult result;
  try {
    wire::Cursor c(std::string_view(text->data(), header_end), "fabric wire");
    c.expect("{\"lease\":");
    result.lease.id = c.read_u64();
    c.expect(",\"first\":");
    result.lease.first = c.read_u64();
    c.expect(",\"count\":");
    result.lease.count = c.read_u64();
    c.expect(",\"fence\":");
    result.lease.fence = c.read_u64();
    c.expect("}");
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  if (result.lease.id != lease_id) return std::nullopt;
  std::size_t pos = header_end + 1;
  while (pos < text->size()) {
    const std::size_t eol = text->find('\n', pos);
    if (eol == std::string::npos) return std::nullopt;  // torn tail
    result.payloads.emplace_back(text->substr(pos, eol - pos));
    pos = eol + 1;
  }
  if (result.payloads.size() != result.lease.count) return std::nullopt;
  return result;
}

}  // namespace mra::fabric
