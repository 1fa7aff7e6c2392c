/**
 * @file
 * `tpupoint-salvage`: rewrite a damaged profile as a clean one.
 * Reads the input in salvage mode — corrupt chunks are dropped,
 * the reader resynchronizes on the next chunk marker, a truncated
 * tail ends the stream early — and writes every surviving record
 * into a fresh, fully framed profile that the rest of the
 * toolchain accepts without `--salvage`.
 *
 * Usage:
 *   tpupoint-salvage DAMAGED_PROFILE CLEAN_PROFILE
 */

#include <cstdio>
#include <exception>
#include <fstream>
#include <string>

#include "proto/serialize.hh"

using namespace tpupoint;

int
main(int argc, char **argv)
{
    if (argc != 3) {
        std::fprintf(stderr,
                     "usage: tpupoint-salvage DAMAGED_PROFILE "
                     "CLEAN_PROFILE\n");
        return 2;
    }
    const std::string in_path = argv[1];
    const std::string out_path = argv[2];

    std::ifstream in(in_path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr,
                     "error: cannot open profile '%s'\n",
                     in_path.c_str());
        return 1;
    }
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "error: cannot write '%s'\n",
                     out_path.c_str());
        return 1;
    }

    std::uint64_t salvaged = 0;
    ProfileReader reader(in, /*salvage=*/true);
    try {
        RecordStreamWriter writer(out);
        ProfileRecord record;
        while (reader.read(record)) {
            writer.append(encodeProfileRecord(record));
            ++salvaged;
        }
        writer.finish();
    } catch (const std::exception &error) {
        std::fprintf(stderr, "error: salvage failed: %s\n",
                     error.what());
        return 1;
    }
    out.flush();
    if (!out) {
        std::fprintf(stderr, "error: failed writing '%s'\n",
                     out_path.c_str());
        return 1;
    }

    std::printf("salvaged %llu records",
                static_cast<unsigned long long>(salvaged));
    if (reader.sawDamage()) {
        std::printf(" (dropped %llu chunks, %llu records, "
                    "skipped %llu bytes%s)",
                    static_cast<unsigned long long>(
                        reader.chunksDropped()),
                    static_cast<unsigned long long>(
                        reader.recordsDropped()),
                    static_cast<unsigned long long>(
                        reader.bytesSkipped()),
                    reader.truncatedTail() ? ", truncated tail"
                                           : "");
    } else {
        std::printf(" (input was intact)");
    }
    std::printf("\n");

    if (salvaged == 0) {
        std::fprintf(stderr,
                     "error: nothing salvageable in '%s'\n",
                     in_path.c_str());
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());
    return 0;
}
