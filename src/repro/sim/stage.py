"""Per-stage simulation model.

A :class:`StageSim` executes one basic architecture unit at *row-step*
granularity: each step, the unit's ``h`` engines produce ``h`` consecutive
output rows, taking ``ceil(OutCh/kpf) x ceil(InCh/cpf) x W x K^2`` compute
cycles plus a fixed control overhead. Steps only start when

- the producers have emitted the input rows the kernel window needs
  (pipeline fill), and
- every consumer still has line-buffer credit for the rows this step emits
  (backpressure), and
- frame-streamed data (non-resident weights, untied bias slices, branch
  I/O) has been granted by the shared DRAM channel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.arch.config import StageConfig
from repro.construction.fusion import FusedStage
from repro.perf.resources import stage_stream_bytes, weights_resident
from repro.quant.schemes import QuantScheme

#: Fixed per-row-step control overhead: address generation, accumulator
#: drain, write-back handshake. This is one of the second-order effects the
#: analytical model (Eq. 4) ignores.
ROW_OVERHEAD_CYCLES = 24


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass
class LinkState:
    """Credit bookkeeping for one producer -> consumer edge.

    All quantities are cumulative producer-output rows since t=0 (frame
    boundaries are multiples of the producer's ``out_height``).
    """

    consumer: "StageSim"
    capacity_rows: int
    consumed_rows: int = 0


class StageSim:
    """Simulation state of one pipeline stage (one replica)."""

    def __init__(
        self,
        stage: FusedStage,
        cfg: StageConfig,
        quant: QuantScheme,
        is_terminal: bool,
        branch: int,
    ) -> None:
        self.stage = stage
        self.cfg = cfg
        self.quant = quant
        self.branch = branch
        self.is_terminal = is_terminal

        self.steps_per_frame = _ceil_div(stage.conv_height, cfg.h)
        self.compute_cycles_per_step = (
            _ceil_div(stage.out_channels, cfg.kpf)
            * _ceil_div(stage.in_channels, cfg.cpf)
            * stage.conv_width
            * stage.kernel
            * stage.kernel
        ) + ROW_OVERHEAD_CYCLES

        stream_bytes = stage_stream_bytes(stage, quant)
        stream_bytes += quant.activation_bytes(stage.external_input_elements)
        if is_terminal:
            stream_bytes += quant.activation_bytes(stage.output_elements)
        self.dram_bytes_per_step = stream_bytes / self.steps_per_frame
        self.resident_weight_bytes = (
            quant.weight_bytes(stage.weight_params)
            if weights_resident(stage, quant)
            else 0.0
        )

        # Wiring (set by ``PipelineSimulator._wire``, which then calls
        # :meth:`tabulate`).
        self.producers: list[StageSim] = []
        self.out_links: list[LinkState] = []
        #: The stages one finished step of this one can unblock: itself,
        #: its consumers and its producers, in pipeline order.
        self.unblocks: tuple[StageSim, ...] = ()

        # Progress.
        self.frame = 0
        self.step = 0
        self.emitted_rows = 0  # cumulative own output rows
        self.busy = False
        self.idle_since = 0.0
        self.frames_target = 0

    # ------------------------------------------------------------------
    # geometry helpers
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self.stage.name

    @property
    def input_rows_post_upsample(self) -> int:
        """Rows of the conv input after the folded upsample."""
        if self.producers:
            return self.producers[0].stage.out_height * self.stage.upsample_in
        # External input: reconstruct from the conv geometry.
        return max(1, self.stage.conv_height * self.stage.stride)

    def _pad_top(self) -> int:
        in_rows = self.input_rows_post_upsample
        total = max(
            0,
            (self.stage.conv_height - 1) * self.stage.stride
            + self.stage.kernel
            - in_rows,
        )
        return total // 2

    def producer_rows_needed(self, step: int) -> int:
        """Producer output rows required before ``step`` may start."""
        if not self.producers:
            return 0
        producer_out = self.producers[0].stage.out_height
        if self.stage.kind == "linear" or step >= self.steps_per_frame - 1:
            return producer_out  # the whole input tensor
        last_out_row = min(
            self.stage.conv_height - 1, (step + 1) * self.cfg.h - 1
        )
        last_in_row = min(
            self.input_rows_post_upsample - 1,
            last_out_row * self.stage.stride
            + self.stage.kernel
            - 1
            - self._pad_top(),
        )
        needed = math.ceil((last_in_row + 1) / self.stage.upsample_in)
        return min(producer_out, max(1, needed))

    def rows_after_step(self, step: int) -> int:
        """Cumulative own output rows emitted once ``step`` completes."""
        if step >= self.steps_per_frame - 1:
            return self.stage.out_height
        return self.stage.out_height * (step + 1) // self.steps_per_frame

    def largest_burst(self) -> int:
        """Most own output rows one step emits at once."""
        emitted = [0] + [self.rows_after_step(s) for s in range(self.steps_per_frame)]
        return max(after - before for before, after in zip(emitted, emitted[1:]))

    def window_overlap_rows(self) -> int:
        """Producer rows a consumer must retain across adjacent steps."""
        return _ceil_div(self.stage.kernel, self.stage.upsample_in)

    def tabulate(self) -> None:
        """Precompute the per-step geometry the predicates read.

        Called once the stage is wired: the window depends on the first
        producer, and each producer's in-link is the first of its
        out-links that feeds this stage.
        """
        steps = range(self.steps_per_frame)
        self._rows_needed = [self.producer_rows_needed(s) for s in steps]
        self._rows_after = [self.rows_after_step(s) for s in steps]
        kept = self.window_overlap_rows()
        # Producer rows of the current frame a step releases; the last
        # step releases the whole frame, which depends on the producer.
        self._rows_freed = [max(0, need - kept) for need in self._rows_needed]
        self._in_links = [
            (
                producer,
                producer.stage.out_height,
                next(
                    link
                    for link in producer.out_links
                    if link.consumer is self
                ),
            )
            for producer in self.producers
        ]

    # ------------------------------------------------------------------
    # scheduling predicates
    # ------------------------------------------------------------------
    def done(self) -> bool:
        return self.frame >= self.frames_target

    def inputs_available(self) -> bool:
        """All producers have emitted the rows this step's window needs."""
        needed = self._rows_needed[self.step]
        for producer, out_height, _ in self._in_links:
            if producer.emitted_rows < self.frame * out_height + needed:
                return False
        return True

    def credits_available(self) -> bool:
        """All consumers can absorb the rows this step will emit."""
        emitted_after = (
            self.frame * self.stage.out_height + self._rows_after[self.step]
        )
        for link in self.out_links:
            if emitted_after - link.consumed_rows > link.capacity_rows:
                return False
        return True

    # ------------------------------------------------------------------
    # progress updates (called by the pipeline on step completion)
    # ------------------------------------------------------------------
    def complete_step(self) -> None:
        """Advance emission/consumption bookkeeping after one step."""
        frame, step = self.frame, self.step
        last = step >= self.steps_per_frame - 1
        self.emitted_rows = frame * self.stage.out_height + self._rows_after[step]
        # Release producer rows this window no longer needs.
        freed_in_frame = self._rows_freed[step]
        for _, out_height, link in self._in_links:
            if last:
                freed = (frame + 1) * out_height
            else:
                freed = frame * out_height + freed_in_frame
            link.consumed_rows = max(link.consumed_rows, freed)
        if last:
            self.frame = frame + 1
            self.step = 0
        else:
            self.step = step + 1
