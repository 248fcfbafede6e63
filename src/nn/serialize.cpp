#include "nn/serialize.hpp"

#include <cstdint>
#include <cstring>
#include <fstream>
#include <stdexcept>

namespace acoustic::nn {

namespace {

constexpr char kMagic[4] = {'A', 'C', 'S', 'T'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T value{};
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  if (!in) {
    throw std::runtime_error("load_parameters: truncated stream");
  }
  return value;
}

}  // namespace

void save_parameters(Network& net, std::ostream& out) {
  out.write(kMagic, sizeof(kMagic));
  write_pod(out, kVersion);
  const auto params = net.parameter_values();
  write_pod(out, static_cast<std::uint32_t>(params.size()));
  for (const std::span<float> values : params) {
    write_pod(out, static_cast<std::uint64_t>(values.size()));
    out.write(reinterpret_cast<const char*>(values.data()),
              static_cast<std::streamsize>(values.size() * sizeof(float)));
  }
  if (!out) {
    throw std::runtime_error("save_parameters: stream write failed");
  }
}

void load_parameters(Network& net, std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("load_parameters: bad magic");
  }
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kVersion) {
    throw std::runtime_error("load_parameters: unsupported version " +
                             std::to_string(version));
  }
  const auto params = net.parameter_values();
  const auto groups = read_pod<std::uint32_t>(in);
  if (groups != params.size()) {
    throw std::runtime_error(
        "load_parameters: parameter-group count mismatch (file " +
        std::to_string(groups) + ", network " +
        std::to_string(params.size()) + ")");
  }
  for (const std::span<float> values : params) {
    const auto count = read_pod<std::uint64_t>(in);
    if (count != values.size()) {
      throw std::runtime_error("load_parameters: group size mismatch");
    }
    in.read(reinterpret_cast<char*>(values.data()),
            static_cast<std::streamsize>(count * sizeof(float)));
    if (!in) {
      throw std::runtime_error("load_parameters: truncated parameters");
    }
  }
}

void save_parameters(Network& net, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    throw std::runtime_error("save_parameters: cannot open " + path);
  }
  save_parameters(net, out);
}

void load_parameters(Network& net, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("load_parameters: cannot open " + path);
  }
  load_parameters(net, in);
}

}  // namespace acoustic::nn
