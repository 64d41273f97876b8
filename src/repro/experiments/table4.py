"""Table IV: F-CAD generated accelerators for the five device/precision cases."""

from __future__ import annotations

from dataclasses import dataclass

from repro.devices.fpga import get_device
from repro.dse.space import Customization
from repro.experiments import paper_constants as paper
from repro.fcad.flow import FCad, FcadResult, run_sweep
from repro.models.codec_avatar import build_codec_avatar_decoder
from repro.utils.tables import render_table


@dataclass(frozen=True)
class Table4Case:
    case: int
    device: str
    quant_name: str
    result: FcadResult

    def rows(self) -> list[list[str]]:
        ref = paper.TABLE4_CASES[self.case]
        rows = []
        perf = self.result.dse.best_perf
        for branch, paper_branch in zip(perf.branches, ref["branches"]):
            rows.append(
                [
                    f"case {self.case} ({self.device}, {self.quant_name})",
                    f"Br.{branch.index + 1}",
                    str(branch.dsp),
                    str(branch.bram),
                    f"{branch.fps:.1f}",
                    f"{100 * branch.efficiency:.1f}",
                    f"{paper_branch[2]:.1f}",
                    f"{paper_branch[3]:.1f}",
                ]
            )
        rows.append(
            [
                f"case {self.case} total",
                "-",
                str(perf.total_dsp),
                str(perf.total_bram),
                f"{perf.fps:.1f}",
                f"{100 * perf.overall_efficiency:.1f}",
                f"DSE {self.result.dse.runtime_seconds:.1f}s",
                f"paper DSP {ref['total_dsp']}, {ref['dse_seconds']}s",
            ]
        )
        return rows


@dataclass(frozen=True)
class Table4Result:
    cases: tuple[Table4Case, ...]

    def case(self, number: int) -> Table4Case:
        for case in self.cases:
            if case.case == number:
                return case
        raise KeyError(f"no case {number}")

    def render(self) -> str:
        rows = []
        for case in self.cases:
            rows.extend(case.rows())
        return render_table(
            [
                "case",
                "branch",
                "DSP",
                "BRAM",
                "FPS",
                "eff %",
                "paper FPS",
                "paper eff %",
            ],
            rows,
            title="Table IV: F-CAD generated accelerators for codec avatar decoding",
        )


def run_table4(
    iterations: int = 20,
    population: int = 200,
    seed: int = 0,
    cases: tuple[int, ...] = (1, 2, 3, 4, 5),
) -> Table4Result:
    """Run the F-CAD flow for the requested Table IV cases.

    The five cases run as one batch sweep with a shared evaluation cache —
    results per case are identical to running each flow on its own.
    """
    network = build_codec_avatar_decoder()
    customization = Customization(
        batch_sizes=paper.TABLE4_BATCH_SIZES,
        priorities=(1.0, 1.0, 1.0),
    )
    refs = [paper.TABLE4_CASES[case] for case in cases]
    flows = [
        FCad(
            network=network,
            device=get_device(ref["device"]),
            quant=ref["quant"],
            customization=customization,
        )
        for ref in refs
    ]
    results = run_sweep(
        flows,
        iterations=iterations,
        population=population,
        seed=seed,
    )
    return Table4Result(
        cases=tuple(
            Table4Case(
                case=case,
                device=ref["device"],
                quant_name=ref["quant"],
                result=result,
            )
            for case, ref, result in zip(cases, refs, results)
        )
    )
