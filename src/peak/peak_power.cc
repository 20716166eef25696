#include "peak/peak_analysis.hh"

#include <map>

namespace ulpeak {
namespace peak {

Report
analyze(msp::System &sys, const isa::Image &image, const Options &opts)
{
    sym::SymbolicEngine engine(sys, opts);
    sym::SymbolicResult sr = engine.run(image);

    Report r;
    if (sr.ok)
        r.flatTraceW = sr.tree.flatten();
    if (sr.ok && opts.recordEnvelope) {
        r.envelope.present = true;
        r.envelope.powerW = std::move(sr.envelopeW);
        r.envelope.windows = opts.envelopeWindows;
        if (opts.scenario.hasModes())
            buildWindowCurves(r.envelope, opts.scenario.phaseTclkS());
        else
            buildWindowCurves(r.envelope, 1.0 / opts.freqHz);
    }
    r.everActive = std::move(sr.everActive);
    r.peakActive = std::move(sr.peakActive);
    static_cast<sym::Summary &>(r) = std::move(sr);
    return r;
}

std::vector<std::pair<std::string, size_t>>
activeGatesPerModule(const Netlist &nl,
                     const std::vector<uint32_t> &gates)
{
    std::map<std::string, size_t> counts;
    for (uint32_t g : gates) {
        ModuleId top = nl.topLevelModuleOf(nl.gate(g).module);
        ++counts[nl.moduleName(top)];
    }
    return {counts.begin(), counts.end()};
}

} // namespace peak
} // namespace ulpeak
