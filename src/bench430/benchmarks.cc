#include "bench430/benchmarks.hh"

#include <stdexcept>

namespace ulpeak {
namespace bench430 {

std::string
wrapBenchmarkBody(const std::string &body)
{
    return R"(
        .equ WDTCTL, 0x0120
        .equ PIN, 0x0020
        .equ POUT, 0x0022
        .equ MPY, 0x0130
        .equ MPYS, 0x0132
        .equ OP2, 0x0138
        .equ RESLO, 0x013a
        .equ RESHI, 0x013c
        .equ DONE, 0x01f0
        .equ INPUT, 0x0380
        .equ ARR, 0x0440
        .equ OUT, 0x0500
        .org 0xf800
start:
        mov #0x0a00, sp
        mov #0x5a80, &WDTCTL    ; hold the watchdog
        mov #0, sr
        mov #0, r3
)" + body + R"(
__done:
        mov #1, &DONE
__forever:
        jmp __forever
        .org 0xfffe
        .word start
)";
}

std::string
forkStressSource(unsigned rounds)
{
    std::string body = "        mov #0, r4\n";
    for (unsigned i = 0; i < rounds; ++i) {
        std::string skip = "fs_skip_" + std::to_string(i);
        body += "        mov &PIN, r5\n"
                "        and #1, r5\n"
                "        jz " + skip + "\n"
                "        add #1, r4\n" +
                skip + ":\n";
    }
    body += "        mov r4, &OUT\n";
    return wrapBenchmarkBody(body);
}

baseline::InputSet
Benchmark::makeInput(fuzz::Rng &rng) const
{
    baseline::InputSet in;
    if (inputWords > 0) {
        std::vector<uint16_t> words(inputWords);
        for (uint16_t &w : words)
            w = rng.word() & inputMask;
        in.ram.emplace_back(inputAddr, std::move(words));
    }
    if (usesPort)
        in.portIn = rng.word() & portMask;
    return in;
}

std::vector<baseline::InputSet>
Benchmark::makeInputs(unsigned n, uint32_t seed) const
{
    fuzz::Rng rng(seed);
    std::vector<baseline::InputSet> sets;
    sets.reserve(n);
    for (unsigned i = 0; i < n; ++i)
        sets.push_back(makeInput(rng));
    return sets;
}

isa::Image
Benchmark::assembleImage() const
{
    return isa::assemble(source);
}

const std::vector<Benchmark> &
allBenchmarks()
{
    static const std::vector<Benchmark> list = [] {
        std::vector<Benchmark> v;
        auto add = [&](const std::string &name, const std::string &body,
                       unsigned input_words, uint16_t mask,
                       bool uses_port, const std::string &scratch) {
            Benchmark b;
            b.name = name;
            b.source = wrapBenchmarkBody(body);
            b.inputWords = input_words;
            b.inputMask = mask;
            b.usesPort = uses_port;
            b.scratchReg = scratch;
            v.push_back(std::move(b));
        };
        // Figure 5.1 order.
        add("autoCorr", autoCorrBody(), 8, 0x00ff, false, "r7");
        add("binSearch", binSearchBody(), 1, 0x00ff, false, "");
        add("FFT", fftBody(), 8, 0xffff, false, "");
        add("intFilt", intFiltBody(), 8, 0x03ff, false, "r7");
        add("mult", multBody(), 16, 0xffff, false, "r11");
        add("PI", piBody(), 0, 0, true, "");
        add("tea8", tea8Body(), 6, 0xffff, false, "r14");
        add("tHold", tHoldBody(), 8, 0x07ff, false, "r7");
        add("div", divBody(), 1, 0xffff, false, "");
        add("inSort", inSortBody(), 6, 0x00ff, false, "r11");
        add("rle", rleBody(), 8, 0x0003, false, "r11");
        add("intAVG", intAvgBody(), 8, 0x0fff, false, "r7");
        add("ConvEn", convEnBody(), 1, 0xffff, false, "r11");
        add("Viterbi", viterbiBody(), 6, 0x0003, false, "");
        return v;
    }();
    return list;
}

const Benchmark &
benchmarkByName(const std::string &name)
{
    for (const Benchmark &b : allBenchmarks())
        if (b.name == name)
            return b;
    throw std::out_of_range("unknown benchmark: " + name);
}

const std::vector<std::string> &
allBenchmarkNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (const Benchmark &b : allBenchmarks())
            v.push_back(b.name);
        return v;
    }();
    return names;
}

} // namespace bench430
} // namespace ulpeak
