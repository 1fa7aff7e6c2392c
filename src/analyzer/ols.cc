#include "analyzer/ols.hh"

#include <algorithm>
#include <utility>

#include "core/interner.hh"
#include "core/logging.hh"

namespace tpupoint {

namespace {

/**
 * Materialize a key signature back into sorted label strings
 * ("host:" labels sort before "tpu:" labels, names sorted within
 * each side).
 */
std::vector<std::string>
labelsFromKeys(const std::vector<std::uint64_t> &keys)
{
    const StringInterner &interner = StringInterner::global();
    std::vector<std::string> labels;
    labels.reserve(keys.size());
    for (const std::uint64_t key : keys) {
        const auto id = static_cast<std::uint32_t>(key >> 1);
        labels.push_back(((key & 1) ? "tpu:" : "host:") +
                         std::string(interner.view(id)));
    }
    std::sort(labels.begin(), labels.end());
    return labels;
}

} // namespace

OnlineLinearScan::OnlineLinearScan(const OlsOptions &options)
    : opts(options)
{
    if (opts.similarity_threshold < 0.0 ||
        opts.similarity_threshold > 1.0)
        fatal("OnlineLinearScan: threshold must be in [0, 1]");
}

void
OnlineLinearScan::stepKeys(OpStatsSpan host, OpStatsSpan tpu,
                           std::vector<std::uint64_t> &keys)
{
    keys.reserve(keys.size() + host.size() + tpu.size());
    std::size_t i = 0, j = 0;
    while (i < host.size() && j < tpu.size()) {
        const std::uint64_t hk =
            static_cast<std::uint64_t>(host[i].op) << 1;
        const std::uint64_t tk =
            (static_cast<std::uint64_t>(tpu[j].op) << 1) | 1;
        if (hk < tk) {
            keys.push_back(hk);
            ++i;
        } else {
            keys.push_back(tk);
            ++j;
        }
    }
    for (; i < host.size(); ++i)
        keys.push_back(static_cast<std::uint64_t>(host[i].op)
                       << 1);
    for (; j < tpu.size(); ++j)
        keys.push_back(
            (static_cast<std::uint64_t>(tpu[j].op) << 1) | 1);
}

double
OnlineLinearScan::keySimilarity(const std::vector<std::uint64_t> &a,
                                const std::vector<std::uint64_t> &b)
{
    if (a.empty() || b.empty())
        return a.empty() && b.empty() ? 1.0 : 0.0;
    std::size_t i = 0, j = 0, common = 0;
    while (i < a.size() && j < b.size()) {
        if (a[i] == b[j]) {
            ++common;
            ++i;
            ++j;
        } else if (a[i] < b[j]) {
            ++i;
        } else {
            ++j;
        }
    }
    const std::size_t smaller = std::min(a.size(), b.size());
    return static_cast<double>(common) /
        static_cast<double>(smaller);
}

void
OnlineLinearScan::addStep(StepId step, SimTime span, OpStatsSpan host,
                          OpStatsSpan tpu)
{
    if (finished)
        panic("OnlineLinearScan::addStep after finish");

    step_set.clear();
    stepKeys(host, tpu, step_set);
    if (!have_current) {
        current = Span{step, step, 1, span};
        current_signature = step_set;
        have_current = true;
    } else {
        const double similarity =
            keySimilarity(previous_set, step_set);
        if (similarity >= opts.similarity_threshold) {
            // Group with the running segment.
            current.last_step = step;
            ++current.steps;
            current.duration += span;
        } else {
            // Phase boundary: close the segment, aggregate it into
            // a matching phase (or start a new one), and open the
            // next segment. This keeps the working set at three
            // step records plus one signature per distinct phase.
            closeSegment();
            current = Span{step, step, 1, span};
            current_signature = step_set;
        }
    }

    // Slide the three-step window (i, i-1, i-2); step i-2's
    // storage becomes the next step's buffer.
    std::swap(preprevious_set, previous_set);
    std::swap(previous_set, step_set);
    peak_held = std::max<std::size_t>(peak_held, 3);
}

void
OnlineLinearScan::closeSegment()
{
    segments.push_back(current);

    Group *home = nullptr;
    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (keySimilarity(group_keys[g], current_signature) >=
            opts.similarity_threshold) {
            home = &groups[g];
            break;
        }
    }
    if (!home) {
        groups.emplace_back();
        home = &groups.back();
        group_keys.push_back(current_signature);
        // Label strings are only materialized here — once per
        // distinct phase, not per step.
        home->signature = labelsFromKeys(current_signature);
    }
    home->spans.push_back(current);
    home->steps += current.steps;
    home->duration += current.duration;
}

std::vector<OnlineLinearScan::PhasePeek>
OnlineLinearScan::peekPhases() const
{
    std::vector<PhasePeek> out;
    out.reserve(groups.size() + 1);
    for (const Group &group : groups) {
        PhasePeek peek;
        peek.first_step = group.spans.front().first_step;
        peek.last_step = group.spans.back().last_step;
        peek.steps = group.steps;
        peek.duration = group.duration;
        peek.spans = group.spans.size();
        out.push_back(peek);
    }
    if (!have_current || finished)
        return out;
    // Fold the open segment the way closeSegment() will: into the
    // first group whose signature matches, else as a new phase.
    for (std::size_t g = 0; g < groups.size(); ++g) {
        if (keySimilarity(group_keys[g], current_signature) >=
            opts.similarity_threshold) {
            out[g].last_step = current.last_step;
            out[g].steps += current.steps;
            out[g].duration += current.duration;
            ++out[g].spans;
            return out;
        }
    }
    PhasePeek open;
    open.first_step = current.first_step;
    open.last_step = current.last_step;
    open.steps = current.steps;
    open.duration = current.duration;
    open.spans = 1;
    out.push_back(open);
    return out;
}

void
OnlineLinearScan::finish()
{
    if (finished)
        return;
    finished = true;
    if (have_current)
        closeSegment();
}

const std::vector<OnlineLinearScan::Span> &
OnlineLinearScan::spans() const
{
    if (!finished)
        panic("OnlineLinearScan::spans before finish");
    return segments;
}

const std::vector<OnlineLinearScan::Group> &
OnlineLinearScan::phases() const
{
    if (!finished)
        panic("OnlineLinearScan::phases before finish");
    return groups;
}

} // namespace tpupoint
