"""Binary consensus for m nodes tolerating t < m/3 Byzantine faults.

Phase-king construction with t+1 phases of three broadcast rounds each, so
at least one phase is arbitrated by a correct king.  All messages are single
symbols, giving O(m^2 * t) total communication.

Per phase p (king = node p):

* round 3p     value exchange: broadcast the current bit v; a node that sees
               some bit b at least m - t times records the claim d = b,
               otherwise d = NO_CLAIM.
* round 3p + 1 claim exchange: broadcast d; a bit supported by more than t
               claims becomes the candidate e (at most one bit can qualify),
               and the candidate is "strong" when supported by at least
               m - t claims.
* round 3p + 2 king arbitration: the king broadcasts its candidate (or 0 if
               it has none); nodes with a strong candidate keep it, everyone
               else adopts the king's bit.

Why three rounds: with a single exchange a node can "keep" a majority value
whose support the king cannot distinguish from a tie, and a faulty minority
can then steer the king's tiebreak against the keepers whenever m <= 4t.
The extra claim round makes keeping require m - t corroborating claims, of
which at least m - 2t > t come from correct nodes and are therefore also
visible to the king, so a correct king always arbitrates in favor of the
unique strong candidate.  Unanimity among correct nodes yields a strong
candidate everywhere and thus survives any faulty king.

Every decision depends on symbol counts alone (Berman, Garay & Perry,
FOCS 1989), so :meth:`PhaseKingNode.absorb` takes a round as the numbers of
0s and 1s the other nodes delivered.  Missing or malformed messages count as
neither, which coerces them: bit rounds to 0, claim rounds to NO_CLAIM.  Only
faulty senders can produce such messages, so the coercion choice does not
affect the guarantees.
"""

from __future__ import annotations

NO_CLAIM = 2

VALUE_ROUND = 0
CLAIM_ROUND = 1
KING_ROUND = 2


def rounds_for(t: int) -> int:
    """Total communication rounds: three per phase, t+1 phases."""
    return 3 * (t + 1)


def coerce_bit(value) -> int:
    return 1 if value == 1 else 0


class PhaseKingNode:
    """One node's state machine; the round engine owns all scheduling.

    Drive it with ``payload(r)`` / ``absorb(r, zeros, ones)`` for r in
    ``range(rounds_for(t))``, then read ``output()``.
    """

    def __init__(self, node_id: int, m: int, t: int, input_bit: int):
        if not 0 <= node_id < m:
            raise ValueError(f"node_id {node_id} outside [0, {m})")
        if not 3 * t < m:
            raise ValueError(f"need t < m/3, got m={m}, t={t}")
        self.node_id = node_id
        self.m = m
        self.t = t
        self.v = coerce_bit(input_bit)
        self._claim = NO_CLAIM
        self._candidate = NO_CLAIM
        self._strong = False

    def payload(self, r: int):
        """Symbol to broadcast in round r, or None if this node is silent."""
        kind = r % 3
        if kind == VALUE_ROUND:
            return self.v
        if kind == CLAIM_ROUND:
            return self._claim
        king = r // 3
        if self.node_id == king:
            return self._candidate if self._candidate != NO_CLAIM else 0
        return None

    def absorb(self, r: int, zeros: int, ones: int) -> None:
        """Process one round from its symbol counts.

        ``zeros`` and ``ones`` count the 0s and 1s the *other* nodes
        delivered to this node in round r; every other symbol, and every
        missing one, counts as neither.  The node adds its own state itself,
        so a delivery layer cannot corrupt self-counts.  In a king round
        only the king sends, so ``ones`` is 1 exactly when it sent a 1.
        """
        kind = r % 3
        if kind == VALUE_ROUND:
            # A missing or malformed bit coerces to 0: every slot that is
            # not a 1 is a 0.
            ones += self.v
            zeros = self.m - ones
            if zeros >= self.m - self.t:
                self._claim = 0
            elif ones >= self.m - self.t:
                self._claim = 1
            else:
                self._claim = NO_CLAIM
        elif kind == CLAIM_ROUND:
            # A missing or malformed claim coerces to NO_CLAIM.
            support = [zeros, ones]
            if self._claim != NO_CLAIM:
                support[self._claim] += 1
            # At most one bit can clear the > t threshold: a bit with more
            # than t claims has a correct claimant, which pins at least
            # m - 2t correct nodes to that bit, and m > 3t rules out two
            # such bits at once.
            self._candidate = NO_CLAIM
            self._strong = False
            for b in (0, 1):
                if support[b] > self.t:
                    self._candidate = b
                    self._strong = support[b] >= self.m - self.t
        else:
            king = r // 3
            if self.node_id == king:
                king_bit = coerce_bit(self.payload(r))
            else:
                king_bit = 1 if ones else 0
            if self._strong:
                self.v = self._candidate
            else:
                self.v = king_bit
            self._claim = NO_CLAIM
            self._candidate = NO_CLAIM
            self._strong = False

    def output(self) -> int:
        return self.v

