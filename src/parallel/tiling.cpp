#include "parallel/tiling.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace pspl {

namespace {

// Widest tile honored in any mode: keeps the per-thread staging arena
// bounded (a (rows, tile) double tile at rows = 1000 is ~32 MB here).
constexpr std::size_t max_tile_cols = 4096;

/// Read one small sysfs file into buf; false when unreadable.
bool read_sysfs(const char* path, char* buf, std::size_t len)
{
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr) {
        return false;
    }
    const bool ok = std::fgets(buf, static_cast<int>(len), f) != nullptr;
    std::fclose(f);
    return ok;
}

/// Parse a sysfs cache size string ("2048K", "1M", "262144").
std::size_t parse_cache_size(const char* text)
{
    char* end = nullptr;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (end == text) {
        return 0;
    }
    std::size_t bytes = static_cast<std::size_t>(v);
    if (*end == 'K' || *end == 'k') {
        bytes *= 1024;
    } else if (*end == 'M' || *end == 'm') {
        bytes *= 1024 * 1024;
    }
    return bytes;
}

std::size_t detect_cache_bytes(int level, std::size_t fallback)
{
#if defined(__linux__)
    // Scan cpu0's cache indices for the requested-level data/unified cache.
    for (int index = 0; index < 8; ++index) {
        char path[96];
        char text[64];
        std::snprintf(path, sizeof(path),
                      "/sys/devices/system/cpu/cpu0/cache/index%d/level",
                      index);
        if (!read_sysfs(path, text, sizeof(text))
            || std::atoi(text) != level) {
            continue;
        }
        std::snprintf(path, sizeof(path),
                      "/sys/devices/system/cpu/cpu0/cache/index%d/type",
                      index);
        if (read_sysfs(path, text, sizeof(text))
            && std::strncmp(text, "Instruction", 11) == 0) {
            continue;
        }
        std::snprintf(path, sizeof(path),
                      "/sys/devices/system/cpu/cpu0/cache/index%d/size",
                      index);
        if (read_sysfs(path, text, sizeof(text))) {
            const std::size_t bytes = parse_cache_size(text);
            if (bytes > 0) {
                return bytes;
            }
        }
    }
#endif
    return fallback;
}

} // namespace

std::size_t l2_cache_bytes()
{
    static const std::size_t bytes =
            detect_cache_bytes(2, std::size_t{1} << 20); // 1 MiB fallback
    return bytes;
}

std::size_t l3_cache_bytes()
{
    static const std::size_t bytes =
            detect_cache_bytes(3, std::size_t{32} << 20); // 32 MiB fallback
    return bytes;
}

TilePolicy TilePolicy::from_env()
{
    const char* env = std::getenv("PSPL_TILE");
    if (env == nullptr || *env == '\0'
        || std::strcmp(env, "auto") == 0) {
        return automatic();
    }
    if (std::strcmp(env, "off") == 0 || std::strcmp(env, "0") == 0) {
        return off();
    }
    // The whole string must be an unsigned integer: strtoull alone would
    // accept a sign, leading blanks and a trailing suffix ("1e3" -> 1).
    char* end = nullptr;
    const unsigned long long v = std::strtoull(env, &end, 10);
    if (std::isdigit(static_cast<unsigned char>(*env)) != 0 && *end == '\0'
        && v > 0) {
        return explicit_width(static_cast<std::size_t>(v));
    }
    return automatic(); // unparseable: fall back to the model
}

std::size_t TilePolicy::tile_cols(std::size_t col_bytes,
                                  std::size_t batch_cols,
                                  std::size_t pack_width,
                                  std::size_t fixed_bytes) const
{
    const std::size_t w = pack_width > 0 ? pack_width : 1;
    std::size_t cols = 0;
    if (mode == Mode::Explicit) {
        // Clamp before rounding up (a huge request must not wrap), then
        // round up to a pack multiple so tile boundaries stay on pack
        // boundaries (the bitwise-identity invariant).
        const std::size_t want = tile < max_tile_cols ? tile : max_tile_cols;
        cols = (want + w - 1) / w * w;
    } else {
        const std::size_t l2 = l2_cache_bytes();
        // Kept: without the carve-out the e2e plan widths move (62 -> 65)
        // for no measured gain (EXPERIMENTS.md, "One tile-width rule").
        const std::size_t carve = fixed_bytes < l2 / 4 ? fixed_bytes : l2 / 4;
        const std::size_t budget = l2 / 2 - carve / 2;
        cols = col_bytes > 0 ? budget / col_bytes : max_tile_cols;
        cols = cols / w * w; // round down to a pack multiple
    }
    const std::size_t cap = max_tile_cols / w * w;
    if (cols > cap) {
        cols = cap;
    }
    const std::size_t batch_packs = (batch_cols + w - 1) / w * w;
    if (batch_packs > 0 && cols > batch_packs) {
        cols = batch_packs;
    }
    return cols > w ? cols : w;
}

bool TilePolicy::streams(std::size_t col_bytes, std::size_t batch_cols) const
{
    if (mode != Mode::Auto) {
        return mode == Mode::Off;
    }
    // Division keeps the comparison overflow-safe for huge batches.
    return col_bytes > 0 && batch_cols > l3_cache_bytes() / col_bytes;
}

std::string TilePolicy::describe() const
{
    switch (mode) {
    case Mode::Auto:
        return "auto";
    case Mode::Off:
        return "off";
    case Mode::Explicit:
        return std::to_string(tile);
    }
    return "?";
}

} // namespace pspl
