#include "analyzer/phases.hh"

#include <algorithm>
#include <map>
#include <utility>

#include "core/interner.hh"
#include "core/logging.hh"

namespace tpupoint {

namespace {

/**
 * Operator sums for one phase at a time, keyed by interned id: a
 * dense slot per id (0 = untouched, else 1 + position) into the
 * list of ids the phase touched, in first-touch order. Sums fold
 * integer-to-integer; the name-keyed OpStatsMap a Phase exposes is
 * materialized from the touched list once per phase (std::map
 * insertion sorts by name, so the order of the list is
 * irrelevant). One set of sums serves a whole call: draining a
 * phase resets only the slots it touched.
 */
class OpSums
{
  public:
    OpSums() : slot(StringInterner::global().size(), 0) {}

    void
    add(OpStatsSpan ops)
    {
        for (const ColumnarOpStats &entry : ops) {
            if (entry.op >= slot.size())
                slot.resize(std::size_t{entry.op} + 1, 0);
            std::uint32_t &at = slot[entry.op];
            if (at == 0) {
                touched.emplace_back(entry.op, OpStats{});
                at = static_cast<std::uint32_t>(touched.size());
            }
            OpStats &stats = touched[at - 1].second;
            stats.count += entry.count;
            stats.total_duration += entry.total_duration;
        }
    }

    /** Move the sums into @p out by name and clear them. */
    void
    drainInto(OpStatsMap &out)
    {
        const StringInterner &interner = StringInterner::global();
        for (const auto &[id, stats] : touched) {
            out.emplace(std::string(interner.view(id)), stats);
            slot[id] = 0;
        }
        touched.clear();
    }

  private:
    std::vector<std::uint32_t> slot;
    std::vector<std::pair<std::uint32_t, OpStats>> touched;
};

/** Host and TPU sums, shared by every phase of one call. */
struct PhaseSums
{
    OpSums host, tpu;

    /** Fold step @p index of @p table into @p phase. */
    void
    fold(Phase &phase, const StepTable &table, std::size_t index)
    {
        const StepId sid = table.stepId(index);
        if (phase.members.empty()) {
            phase.first_step = sid;
            phase.last_step = sid;
        } else {
            phase.first_step = std::min(phase.first_step, sid);
            phase.last_step = std::max(phase.last_step, sid);
        }
        phase.members.push_back(index);
        phase.total_duration += table.span(index);
        host.add(table.hostOps(index));
        tpu.add(table.tpuOps(index));
    }

    /** Resolve the sums folded since the last drain into
     * @p phase's name maps. */
    void
    drainInto(Phase &phase)
    {
        host.drainInto(phase.host_ops);
        tpu.drainInto(phase.tpu_ops);
    }
};

} // namespace

std::vector<Phase>
phasesFromLabels(const StepTable &table,
                 const std::vector<int> &labels)
{
    if (labels.size() != table.size())
        panic("phasesFromLabels: label/step count mismatch");
    // Members per label first (ascending), so one set of sums
    // serves each phase in turn.
    std::map<int, std::vector<std::size_t>> by_label;
    for (std::size_t i = 0; i < labels.size(); ++i)
        by_label[labels[i] < 0 ? -1 : labels[i]].push_back(i);
    std::vector<Phase> out;
    out.reserve(by_label.size());
    PhaseSums sums;
    for (const auto &[key, members] : by_label) {
        Phase &phase = out.emplace_back();
        phase.id = key;
        phase.is_noise = key < 0;
        phase.members.reserve(members.size());
        for (const std::size_t index : members)
            sums.fold(phase, table, index);
        sums.drainInto(phase);
    }
    return out;
}

std::vector<Phase>
phasesFromGroups(const StepTable &table,
                 const std::vector<OnlineLinearScan::Group> &groups)
{
    std::vector<Phase> out;
    out.reserve(groups.size());
    PhaseSums sums;

    // Map each step to its group by span membership. Spans are
    // disjoint across groups, so a per-step scan suffices.
    for (const auto &group : groups) {
        Phase phase;
        phase.id = static_cast<int>(out.size());
        std::size_t index = 0;
        for (const auto &span : group.spans) {
            // Spans arrive in ascending step order per group.
            while (index < table.size() &&
                   table.stepId(index) < span.first_step)
                ++index;
            while (index < table.size() &&
                   table.stepId(index) <= span.last_step) {
                sums.fold(phase, table, index);
                ++index;
            }
        }
        if (!phase.members.empty()) {
            sums.drainInto(phase);
            out.push_back(std::move(phase));
        }
    }
    return out;
}

std::vector<const Phase *>
phasesByDuration(const std::vector<Phase> &phases)
{
    std::vector<const Phase *> sorted;
    sorted.reserve(phases.size());
    for (const auto &phase : phases)
        sorted.push_back(&phase);
    std::sort(sorted.begin(), sorted.end(),
              [](const Phase *a, const Phase *b) {
                  return a->total_duration > b->total_duration;
              });
    return sorted;
}

double
topPhaseCoverage(const std::vector<Phase> &phases,
                 std::size_t top_n)
{
    SimTime total = 0;
    for (const auto &phase : phases)
        total += phase.total_duration;
    if (total == 0)
        return 0.0;
    const auto sorted = phasesByDuration(phases);
    SimTime covered = 0;
    for (std::size_t i = 0; i < sorted.size() && i < top_n; ++i)
        covered += sorted[i]->total_duration;
    return static_cast<double>(covered) /
        static_cast<double>(total);
}

const Phase *
longestPhase(const std::vector<Phase> &phases)
{
    const Phase *best = nullptr;
    for (const auto &phase : phases) {
        if (!best || phase.total_duration > best->total_duration)
            best = &phase;
    }
    return best;
}

std::vector<RankedOp>
topOps(const OpStatsMap &ops, std::size_t n)
{
    SimTime total = 0;
    for (const auto &[name, stats] : ops)
        total += stats.total_duration;

    std::vector<RankedOp> ranked;
    ranked.reserve(ops.size());
    for (const auto &[name, stats] : ops) {
        RankedOp op;
        op.name = name;
        op.total_duration = stats.total_duration;
        op.count = stats.count;
        op.share = total
            ? static_cast<double>(stats.total_duration) /
                static_cast<double>(total)
            : 0.0;
        ranked.push_back(std::move(op));
    }
    std::sort(ranked.begin(), ranked.end(),
              [](const RankedOp &a, const RankedOp &b) {
                  if (a.total_duration != b.total_duration)
                      return a.total_duration > b.total_duration;
                  return a.name < b.name;
              });
    if (ranked.size() > n)
        ranked.resize(n);
    return ranked;
}

} // namespace tpupoint
