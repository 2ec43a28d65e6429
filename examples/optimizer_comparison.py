"""RQ3 in miniature: program-level optimization vs circuit optimizers.

Compiles ``length-simplified`` (Section 8's comparison workload), runs each
circuit-optimizer baseline on the unoptimized circuit, and contrasts with
Spire and with Spire + circuit optimizer.  A baseline is the pipeline with
its gate pass appended (``none+peephole``).  Every step of a compile has
one :class:`~repro.passes.PassRecord`: a strategy's time is the sum of its
compile's records, and a baseline's time is its gate pass's record.
"""

from repro import CompilerConfig, compile_source
from repro.benchsuite import SOURCES
from repro.passes import GATES, get_pass_class, pass_names

DEPTH = 6


def main() -> None:
    config = CompilerConfig(word_width=3, addr_width=3, heap_cells=6)
    src = SOURCES["length-simplified"]

    def compile_with(optimization: str):
        return compile_source(src, "length_simplified", size=DEPTH, config=config,
                              optimization=optimization)

    plain = compile_with("none")
    spire = compile_with("spire")
    baseline = plain.t_complexity()
    print(f"length-simplified at n={DEPTH}: {baseline} T gates unoptimized\n")
    print(f"{'strategy':<34} {'T gates':>8} {'reduction':>10} {'seconds':>8}")

    def seconds(compiled, step=None) -> float:
        return sum(r.seconds for r in compiled.pass_records
                   if step is None or r.name == step)

    row = "{:<34} {:>8} {:>9.1f}% {:>8.3f}"
    spire_time = seconds(spire)
    print(row.format("Spire (program-level)", spire.t_complexity(),
                     100 * (1 - spire.t_complexity() / baseline), spire_time))

    for name in pass_names():
        cls = get_pass_class(name)
        if cls.stage != GATES:
            continue
        spec = f"{name}(timeout=1.0)" if name == "greedy-search" else name
        result = compile_with(f"none+{spec}")
        print(row.format(f"{name} ({cls.models})"[:34], result.t_complexity(),
                         100 * (1 - result.t_complexity() / baseline),
                         seconds(result, name)))

    combined = compile_with("spire+toffoli-cancel")
    print(row.format("Spire + toffoli-cancel", combined.t_complexity(),
                     100 * (1 - combined.t_complexity() / baseline),
                     seconds(combined)))


if __name__ == "__main__":
    main()
