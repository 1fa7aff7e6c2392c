#include "trace/tail_reader.hh"

#include <algorithm>
#include <fstream>

namespace tpupoint {

TailReader::TailReader(std::string path, bool salvage)
    : RecordStreamParser(salvage, /*growing=*/true),
      file_path(std::move(path))
{
}

TailPoll
TailReader::poll(const PayloadHook &on_record,
                 const ChunkHook &on_chunk,
                 std::uint64_t offset_limit)
{
    TailPoll out;
    const auto finish = [&] {
        out.status = complete() ? TailStatus::Complete
            : damaged()         ? TailStatus::Damaged
                                : TailStatus::Pending;
        return out;
    };
    if (state != StreamStatus::Ok)
        return finish();

    std::ifstream file(file_path, std::ios::binary);
    if (!file)
        return out; // Not spooled yet: Pending, nothing consumed.
    file.seekg(0, std::ios::end);
    const auto end_pos = file.tellg();
    if (end_pos < 0)
        return out;
    const auto size = static_cast<std::uint64_t>(end_pos);
    if (size < offset) {
        // The file shrank under us — a writer never truncates, so
        // the consumed prefix is gone. Strict mode gives up;
        // salvage waits for the file to grow back past the offset
        // (a copy-then-rename spooler can look like this briefly).
        if (!salvaging()) {
            detail = "file shrank below the consumed offset";
            state = StreamStatus::Corrupt;
        }
        return finish();
    }
    file.seekg(static_cast<std::streamoff>(offset));
    // A limit caps what this pass may see, never what was already
    // consumed.
    attach(file, std::max(offset, std::min(size, offset_limit)));

    const std::uint64_t start = offset;
    std::size_t chunk_records = 0;
    std::string_view payload;
    for (;;) {
        const Step next = step(payload);
        if (next == Step::Record) {
            if (on_record)
                on_record(payload);
            ++chunk_records;
        } else if (next == Step::Chunk) {
            ++chunks_consumed;
            ++out.chunks;
            out.records += chunk_records;
            if (on_chunk)
                on_chunk(chunk_records);
            chunk_records = 0;
        } else {
            break;
        }
    }
    out.bytes = offset - start;
    return finish();
}

} // namespace tpupoint
