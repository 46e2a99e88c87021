"""A stand-in for the ``tc`` and ``ip`` binaries, for shaping without root.

``FakeTc`` is a ``TcBackend`` runner: it takes one command line and returns
(exit status, stderr). Each command waits a fixed cost, standing for the
fork, exec and netlink round trip of a real ``tc`` call, and is timestamped.
It waits by spinning on the clock: on a shared machine the wake-up latency
of ``time.sleep`` varies by more than a tenth of so short a cost.
A small model of the qdiscs, classes and filters on each device rejects
commands the kernel would reject (adding what exists, deleting what does not,
attaching to a missing parent) and tells when traffic is shaped: both
directions have their netem leaf, and ingress traffic is redirected to the
ifb device that shapes downloads. No real interface is touched.
"""

from __future__ import annotations

import time
from typing import Optional

_EXISTS = (2, "RTNETLINK answers: File exists")
_MISSING = (2, "RTNETLINK answers: No such file or directory")
_NO_PARENT = (2, "Error: Parent Qdisc doesn't exists.")


class FakeTc:
    """Runner that models tc state and records when shaping lapses."""

    def __init__(self, exec_cost_s: float, egress: str, ifb: str) -> None:
        self.exec_cost_s = exec_cost_s
        self.egress = egress
        self.ifb = ifb
        self.ingress: set[str] = set()  # devices with an ingress qdisc
        self.redirect: dict[str, str] = {}  # device -> matchall mirred target
        self.root: set[str] = set()  # devices with a root htb qdisc
        self.leaf_class: set[str] = set()  # devices with htb class 1:1
        self.netem: set[str] = set()  # devices with netem 10: under 1:1
        self.commands = 0
        self.timestamps: list[tuple[float, float]] = []
        self._lapsed_at: Optional[float] = None
        self.gaps: list[float] = []  # seconds from losing to regaining shaping

    def shaped(self) -> bool:
        """True when both directions pass through an htb class and netem leaf."""
        return (
            self.egress in self.netem
            and self.ifb in self.netem
            and self.redirect.get(self.egress) == self.ifb
        )

    def has_rules(self) -> bool:
        return bool(self.ingress or self.redirect or self.root or self.leaf_class or self.netem)

    def __call__(self, command: str) -> tuple[int, str]:
        was_shaped = self.shaped()
        start = time.perf_counter()
        while time.perf_counter() - start < self.exec_cost_s:
            pass
        status, stderr = self._run(command.split())
        end = time.perf_counter()
        self.commands += 1
        self.timestamps.append((start, end))
        now_shaped = self.shaped()
        if was_shaped and not now_shaped:
            self._lapsed_at = end
        elif now_shaped and not was_shaped and self._lapsed_at is not None:
            self.gaps.append(end - self._lapsed_at)
            self._lapsed_at = None
        return status, stderr

    def forget_lapse(self) -> None:
        """Stop timing a lapse that an intended clear started."""
        self._lapsed_at = None

    def _run(self, words: list[str]) -> tuple[int, str]:
        if words[:3] == ["ip", "link", "set"]:
            return 0, ""
        if len(words) < 5 or words[0] != "tc" or words[3] != "dev":
            return 1, f"unknown command: {' '.join(words)}"
        kind, action, device, rest = words[1], words[2], words[4], words[5:]
        if kind == "qdisc" and action == "add":
            if rest[:2] == ["handle", "ffff:"] and rest[2:] == ["ingress"]:
                return self._add(self.ingress, device)
            if rest[:1] == ["root"]:
                return self._add(self.root, device)
            if rest[:4] == ["parent", "1:1", "handle", "10:"] and "netem" in rest:
                if device not in self.leaf_class:
                    return _NO_PARENT
                return self._add(self.netem, device)
        elif kind == "qdisc" and action == "del":
            if rest == ["root"]:
                if device not in self.root:
                    return _MISSING
                self.root.discard(device)
                self.leaf_class.discard(device)
                self.netem.discard(device)
                return 0, ""
            if rest == ["ingress"]:
                if device not in self.ingress:
                    return _MISSING
                self.ingress.discard(device)
                self.redirect.pop(device, None)
                return 0, ""
        elif kind == "class" and action == "add" and "classid" in rest:
            if device not in self.root:
                return _NO_PARENT
            return self._add(self.leaf_class, device)
        elif kind == "filter" and action == "add" and "redirect" in rest:
            if device not in self.ingress:
                return _NO_PARENT
            self.redirect[device] = rest[-1]
            return 0, ""
        return 1, f"unsupported command: {' '.join(words)}"

    @staticmethod
    def _add(present: set, device: str) -> tuple[int, str]:
        if device in present:
            return _EXISTS
        present.add(device)
        return 0, ""
