#!/usr/bin/env python3
"""Fail when a function defined in a src/ library is linked into no program.

check_src_reachability.py proves that some program includes each src/
file; this check proves that some program calls what the file defines.
It builds every bench and example (the root project, tests off) and the
system benchmark (perfbench/) at -O0 with -ffunction-sections
-fdata-sections, linked with -Wl,--gc-sections, so nothing is inlined and
the linker drops every function no program reaches. Then it compares
``nm -C --defined-only`` of the libiob_*.a archives against the program
binaries. An iob:: function defined in a library but present in no
program fails the check unless KEEP below names it with a reason.

Virtual functions stay linked wherever their class's vtable is, so this
check cannot see a virtual that no program calls.

Usage:
  python3 scripts/check_src_symbols.py [--build-dir DIR]

DIR (default: build-symbols/ at the checkout root) holds the two build
trees; a second run reuses them and rebuilds only what changed.
"""

import argparse
import glob
import os
import shutil
import subprocess
import sys

ROOT = os.path.normpath(os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))
FLAGS = [
    "-DCMAKE_BUILD_TYPE=Debug",
    "-DCMAKE_CXX_FLAGS_DEBUG=-O0",
    "-DCMAKE_CXX_FLAGS=-ffunction-sections -fdata-sections",
    "-DCMAKE_EXE_LINKER_FLAGS=-Wl,--gc-sections",
]
CODE_TYPES = set("TtWw")

# Functions no program links that stay on purpose, by qualified name (all
# overloads), each with its reason.
KEEP = {
    # Oracles that tests compare a production path against.
    "iob::isa::fft": "oracle: the planned FFT in mfcc_spectrogram is tested against it",
    "iob::isa::ifft": "oracle: inverse of the fft oracle, for its round-trip and recurrence tests",
    "iob::isa::mfcc_frame": "oracle: per-frame MFCC the lane-batched mfcc_spectrogram is tested against",
    "iob::isa::log_mel_energies": "oracle: per-frame log-mel stage the MFCC DCT and seed-loop tests check",
    "iob::isa::HuffmanCodec::entropy_bits": "oracle: Shannon bound the built Huffman code is tested against",
    "iob::isa::HuffmanCodec::expected_length_bits": "oracle: mean code length held to that bound",
    "iob::comm::GilbertElliott::stationary_bad_fraction": "oracle: analytic bad-state share the sampled chain is tested against",
    "iob::comm::GilbertElliott::expected_loss": "oracle: analytic loss rate the sampled chain is tested against",
    "iob::nn::requantize_s8": "oracle: standalone int8 epilogue the fused GEMM epilogues are tested against",
    "iob::nn::dequantize_f32": "oracle: standalone f32 epilogue the fused GEMM epilogues are tested against",
    "iob::nn::quant_error_bound": "oracle: error bound the quantize round trip is tested against",
    # Test hooks the ROADMAP names.
    "iob::nn::set_kernel_dispatch_cap": "test hook: forces each kernel dispatch tier in the tier sweeps",
    "iob::sim::EventQueue::debug_counts": "test hook: slab and band occupancy behind the event-queue stress tests",
    # Decode halves of wire formats a program encodes.
    "iob::isa::MjpegDeltaDecoder::MjpegDeltaDecoder": "decode half of the delta stream MjpegDeltaEncoder writes",
    "iob::isa::MjpegDeltaDecoder::decode_next": "decode half of the delta stream MjpegDeltaEncoder writes",
    "iob::isa::{anon}::decode_residual_blocks": "decode half: the delta decoder's residual pass",
    # A probe a kept test asserts production behaviour through.
    "iob::sim::Accumulator::min": "hub_batching_test asserts through it that no queued latency is negative",
    # Simulator control and test conveniences, outside the deletion.
    "iob::sim::Simulator::cancel": "public simulator control: cancels a scheduled event",
    "iob::sim::Simulator::request_stop": "public simulator control: stops run() after the current event",
    "iob::sim::Simulator::run_all": "public simulator control: drains the queue with no horizon",
    "iob::nn::QuantizedModel::run_batched": "test convenience: batched int8 run the engine tests compare per sample",
    "iob::nn::unstack_batch": "test convenience: splits a batched output back into samples",
    "iob::nn::Tensor::reshaped": "test convenience: view of a tensor under another shape",
    "iob::core::fleet_results_csv": "test convenience: whole-grid CSV the fleet determinism tests diff",
    "iob::core::fleet_node_config": "test convenience: one node's config as a fleet point builds it",
}


def qualified_name(symbol):
    """The demangled name without return type or parameter list, so one
    entry covers every overload. Anonymous namespaces read as {anon}."""
    s = symbol.replace("(anonymous namespace)", "{anon}").replace("[abi:cxx11]", "")
    depth = 0
    start = 0
    i = 0
    while i < len(s):
        if s.startswith("operator", i) and (i == 0 or s[i - 1] in ": "):
            j = i + len("operator")
            if s.startswith("()", j):
                j += 2
            return s[start:s.index("(", j)]
        c = s[i]
        if c == "<":
            depth += 1
        elif c == ">":
            depth -= 1
        elif depth == 0 and c == " ":
            start = i + 1  # a template instantiation's return type ends here
        elif depth == 0 and c == "(":
            return s[start:i]
        i += 1
    return s[start:]


def defined_functions(paths):
    """Demangled iob:: functions defined in `paths`, as {symbol: qualified name}."""
    out = subprocess.run(["nm", "-C", "--defined-only", *paths], check=True,
                         capture_output=True, text=True).stdout
    found = {}
    for line in out.splitlines():
        parts = line.split(" ", 2)
        if len(parts) == 3 and parts[1] in CODE_TYPES:
            q = qualified_name(parts[2])
            if q.startswith("iob::"):
                found[parts[2]] = q
    return found


def build(source, tree, extra=()):
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        cmd = ["cmake", "-S", source, "-B", tree, *FLAGS, *extra]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", tree, "--parallel", jobs], check=True,
                   stdout=subprocess.DEVNULL)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--build-dir", default=os.path.join(ROOT, "build-symbols"))
    args = ap.parse_args()
    programs_tree = os.path.join(args.build_dir, "programs")
    perfbench_tree = os.path.join(args.build_dir, "perfbench")
    build(ROOT, programs_tree, ["-DIOB_BUILD_TESTS=OFF"])
    build(os.path.join(ROOT, "perfbench"), perfbench_tree)

    libraries = sorted(glob.glob(os.path.join(programs_tree, "libiob_*.a")))
    programs = sorted(glob.glob(os.path.join(programs_tree, "bench_*")) +
                      glob.glob(os.path.join(programs_tree, "example_*")) +
                      [os.path.join(perfbench_tree, "perfbench")])
    programs = [p for p in programs if os.path.isfile(p) and os.access(p, os.X_OK)]
    if not libraries or len(programs) < 2:
        print("no libraries or programs were built")
        return 1

    linked = set(defined_functions(programs).values())
    defined = defined_functions(libraries)
    unlinked = {}
    for s, q in defined.items():
        if q not in linked and q not in KEEP:
            unlinked.setdefault(q, []).append(s)
    for q in sorted(unlinked):
        for s in sorted(unlinked[q]):
            print(f"{s}: defined in a src/ library, linked into no program")
    stale = sorted(q for q in KEEP if q in linked or q not in defined.values())
    for q in stale:
        print(f"{q}: on the keep list but linked into a program or no longer defined; "
              "drop the entry")
    if unlinked or stale:
        print(f"{len(unlinked)} function(s) no program calls: call them from a program, "
              f"delete them, or keep them in {os.path.relpath(__file__, ROOT)} with a reason")
        return 1
    print(f"every iob:: function in {len(libraries)} libraries is linked into one of "
          f"{len(programs)} programs or kept with a reason ({len(KEEP)} kept)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
