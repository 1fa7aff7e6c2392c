/**
 * @file
 * Shared argument parsing for the command-line tools: a declarative
 * flag table (FlagParser) that derives `--help` and the usage line
 * from the same declarations it parses with, plus the workload /
 * algorithm name maps and telemetry helpers.
 */

#ifndef TPUPOINT_TOOLS_CLI_COMMON_HH
#define TPUPOINT_TOOLS_CLI_COMMON_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "analyzer/analyzer.hh"
#include "core/strings.hh"
#include "obs/metrics.hh"
#include "obs/trace_export.hh"
#include "proto/serialize.hh"
#include "workloads/catalog.hh"

namespace tpupoint {
namespace cli {

/**
 * Declarative command-line parser. Each tool declares its flags
 * once — name, optional short alias, value placeholder, one-line
 * help, and an apply callback — and FlagParser handles matching
 * (`--flag value` and `--flag=value` both work), the generated
 * usage line, an automatic `--help`, and the error contract the
 * CLI tests pin: "unknown option X" and "missing value for X" on
 * stderr with exit code 2.
 */
class FlagParser
{
  public:
    enum class Outcome {
        Ok,   ///< All arguments consumed; proceed.
        Help, ///< --help printed; exit 0.
        Error ///< Message printed; exit 2.
    };

    /**
     * @param tool The executable name for the usage line.
     * @param positionals Usage text for positional arguments
     *     ("PROFILE"), or "" when the tool takes none.
     */
    FlagParser(std::string tool, std::string positionals)
        : tool_name(std::move(tool)),
          positional_usage(std::move(positionals))
    {
    }

    /**
     * A flag taking a value. @p apply returns false to abort
     * parsing (after printing its own diagnostic); the parser then
     * reports Outcome::Error.
     */
    void
    option(const char *name, const char *value_name,
           const char *help,
           std::function<bool(const char *)> apply)
    {
        flags.push_back(Flag{name, "", value_name, help,
                             std::move(apply), nullptr});
    }

    /** option() with a short alias ("-o" for "--out"). */
    void
    optionWithAlias(const char *name, const char *alias,
                    const char *value_name, const char *help,
                    std::function<bool(const char *)> apply)
    {
        flags.push_back(Flag{name, alias, value_name, help,
                             std::move(apply), nullptr});
    }

    /** A boolean switch (no value). */
    void
    toggle(const char *name, const char *help,
           std::function<void()> apply)
    {
        flags.push_back(
            Flag{name, "", "", help, nullptr, std::move(apply)});
    }

    /** The generated one-line usage string (no trailing \n). */
    std::string
    usage() const
    {
        std::string out = "usage: " + tool_name;
        if (!positional_usage.empty())
            out += " " + positional_usage;
        for (const Flag &flag : flags) {
            out += " [" + flag.name;
            if (!flag.value_name.empty())
                out += " " + flag.value_name;
            out += "]";
        }
        return out;
    }

    /** Print usage + per-flag help to @p out. */
    void
    printHelp(std::FILE *out) const
    {
        std::fprintf(out, "%s\n\noptions:\n", usage().c_str());
        for (const Flag &flag : flags) {
            std::string left = "  " + flag.name;
            if (!flag.alias.empty())
                left += ", " + flag.alias;
            if (!flag.value_name.empty())
                left += " " + flag.value_name;
            std::fprintf(out, "%-34s %s\n", left.c_str(),
                         flag.help.c_str());
        }
        std::fprintf(out, "%-34s %s\n", "  --help",
                     "show this help and exit");
    }

    /** Parse argv[@p begin .. argc). */
    Outcome
    parse(int argc, char **argv, int begin)
    {
        for (int i = begin; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg == "--help" || arg == "-h") {
                printHelp(stdout);
                return Outcome::Help;
            }
            const std::size_t eq = arg.find('=');
            const std::string key =
                eq == std::string::npos ? arg : arg.substr(0, eq);
            const Flag *flag = find(key);
            if (flag == nullptr) {
                std::fprintf(stderr, "unknown option %s\n",
                             arg.c_str());
                return Outcome::Error;
            }
            if (flag->value_name.empty()) {
                // A boolean switch: "--salvage=x" is not a form
                // it takes.
                if (eq != std::string::npos) {
                    std::fprintf(stderr, "unknown option %s\n",
                                 arg.c_str());
                    return Outcome::Error;
                }
                flag->on_set();
                continue;
            }
            std::string value;
            if (eq != std::string::npos) {
                value = arg.substr(eq + 1);
            } else {
                if (i + 1 >= argc) {
                    std::fprintf(stderr,
                                 "missing value for %s\n",
                                 arg.c_str());
                    return Outcome::Error;
                }
                value = argv[++i];
            }
            if (!flag->on_value(value.c_str()))
                return Outcome::Error;
        }
        return Outcome::Ok;
    }

  private:
    struct Flag
    {
        std::string name;
        std::string alias;
        std::string value_name; ///< "" = boolean switch.
        std::string help;
        std::function<bool(const char *)> on_value;
        std::function<void()> on_set;
    };

    const Flag *
    find(const std::string &key) const
    {
        for (const Flag &flag : flags) {
            if (key == flag.name ||
                (!flag.alias.empty() && key == flag.alias))
                return &flag;
        }
        return nullptr;
    }

    std::string tool_name;
    std::string positional_usage;
    std::vector<Flag> flags;
};

/**
 * Checked CLI integer parse: the whole of @p text must be one
 * decimal integer in [@p min, @p max]. On failure prints
 * "FLAG wants an integer in [min, max], got 'text'" to stderr and
 * returns false — `--steps banana` is a diagnosed error, never a
 * silent zero, and an overflowing value never wraps.
 */
inline bool
parseInt(const char *flag, const char *text, std::int64_t min,
         std::int64_t max, std::int64_t *value)
{
    std::int64_t parsed = 0;
    if (!tpupoint::parseInt64(text, &parsed) || parsed < min ||
        parsed > max) {
        std::fprintf(stderr,
                     "%s wants an integer in [%lld, %lld], "
                     "got '%s'\n",
                     flag, static_cast<long long>(min),
                     static_cast<long long>(max), text);
        return false;
    }
    *value = parsed;
    return true;
}

/** parseInt for unsigned ranges ('-1' is rejected, not wrapped). */
inline bool
parseUint(const char *flag, const char *text, std::uint64_t max,
          std::uint64_t *value)
{
    std::uint64_t parsed = 0;
    if (!tpupoint::parseUint64(text, &parsed) || parsed > max) {
        std::fprintf(stderr,
                     "%s wants an integer in [0, %llu], got "
                     "'%s'\n",
                     flag, static_cast<unsigned long long>(max),
                     text);
        return false;
    }
    *value = parsed;
    return true;
}

/**
 * Checked CLI number parse: the whole of @p text must be one finite
 * decimal number in [@p min, @p max] (@p max may be infinity). On
 * failure prints "FLAG wants a number in [min, max], got 'text'"
 * to stderr and returns false — `--threshold banana` is a
 * diagnosed error, never a silent zero.
 */
inline bool
parseDouble(const char *flag, const char *text, double min,
            double max, double *value)
{
    double parsed = 0.0;
    if (!tpupoint::parseDouble(text, &parsed) || parsed < min ||
        parsed > max) {
        std::fprintf(stderr,
                     "%s wants a number in [%g, %g], got '%s'\n",
                     flag, min, max, text);
        return false;
    }
    *value = parsed;
    return true;
}

/**
 * Register the standard `--threads N` knob on @p parser, storing
 * into @p threads: 0 (the conventional default) resolves through
 * TPUPOINT_THREADS / hardware concurrency at pool construction,
 * 1 is the serial path, and results are bit-identical either way.
 */
inline void
addThreadsFlag(FlagParser &parser, unsigned *threads)
{
    parser.option(
        "--threads", "N",
        "analysis worker threads (default: TPUPOINT_THREADS or "
        "hardware concurrency; results identical for any N)",
        [threads](const char *value) {
            std::uint64_t parsed = 0;
            if (!parseUint("--threads", value,
                           std::numeric_limits<unsigned>::max(),
                           &parsed))
                return false;
            *threads = static_cast<unsigned>(parsed);
            return true;
        });
}

/** Map a CLI workload name to its id; false when unknown. */
inline bool
parseWorkload(const std::string &name, WorkloadId *id)
{
    if (name == "bert-mrpc")
        *id = WorkloadId::BertMrpc;
    else if (name == "bert-squad")
        *id = WorkloadId::BertSquad;
    else if (name == "bert-cola")
        *id = WorkloadId::BertCola;
    else if (name == "bert-mnli")
        *id = WorkloadId::BertMnli;
    else if (name == "dcgan-cifar10")
        *id = WorkloadId::DcganCifar10;
    else if (name == "dcgan-mnist")
        *id = WorkloadId::DcganMnist;
    else if (name == "qanet")
        *id = WorkloadId::QanetSquad;
    else if (name == "qanet-half")
        *id = WorkloadId::QanetSquadHalf;
    else if (name == "retinanet")
        *id = WorkloadId::RetinanetCoco;
    else if (name == "retinanet-half")
        *id = WorkloadId::RetinanetCocoHalf;
    else if (name == "resnet")
        *id = WorkloadId::ResnetImagenet;
    else if (name == "resnet-cifar10")
        *id = WorkloadId::ResnetCifar10;
    else
        return false;
    return true;
}

/** Map a CLI algorithm name to the analyzer enum. */
inline bool
parseAlgorithm(const std::string &name, PhaseAlgorithm *algorithm)
{
    if (name == "ols")
        *algorithm = PhaseAlgorithm::OnlineLinearScan;
    else if (name == "kmeans")
        *algorithm = PhaseAlgorithm::KMeans;
    else if (name == "dbscan")
        *algorithm = PhaseAlgorithm::Dbscan;
    else
        return false;
    return true;
}

/**
 * Check that the input profile can be opened before any output
 * path is created or probed, so a missing input fails with the
 * canonical "cannot open profile" message and no stray artifacts.
 */
inline bool
profileReadable(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr,
                     "error: cannot open profile '%s'\n",
                     path.c_str());
        return false;
    }
    return true;
}

/**
 * Write the tool's self-telemetry (`--trace-out`: the span buffer
 * as trace-event JSON; `--metrics-out`: the metrics registry as
 * JSON). Empty paths are skipped. Returns false (after printing an
 * error) when a requested file cannot be written.
 */
inline bool
writeTelemetry(const std::string &trace_out,
               const std::string &metrics_out)
{
    const auto write = [](const std::string &path,
                          const auto &writer) -> bool {
        std::ofstream out(path, std::ios::binary);
        if (out)
            writer(out);
        if (!out) {
            std::fprintf(stderr, "error: cannot write %s\n",
                         path.c_str());
            return false;
        }
        return true;
    };
    bool ok = true;
    if (!trace_out.empty()) {
        ok = write(trace_out, [](std::ostream &out) {
            obs::writeSpanTrace(obs::SpanBuffer::global(), out);
        }) && ok;
    }
    if (!metrics_out.empty()) {
        ok = write(metrics_out, [](std::ostream &out) {
            obs::MetricsRegistry::global().writeJson(out);
        }) && ok;
    }
    return ok;
}

/**
 * Charge a salvage-mode reader's damage tallies to the metrics
 * registry. Called by the tools (proto/ cannot depend on obs/).
 */
inline void
recordSalvageMetrics(const ProfileReader &reader)
{
    if (!reader.sawDamage())
        return;
    auto &registry = obs::MetricsRegistry::global();
    registry.counter("salvage.chunks_dropped")
        .add(reader.chunksDropped());
    registry.counter("salvage.records_dropped")
        .add(reader.recordsDropped());
    registry.counter("salvage.bytes_skipped")
        .add(reader.bytesSkipped());
}

} // namespace cli
} // namespace tpupoint

#endif // TPUPOINT_TOOLS_CLI_COMMON_HH
