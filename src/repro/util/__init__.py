"""Small shared utilities with no domain dependencies.

Lives below every other package (``core``, ``sim``, ``analysis``,
``service`` all may import it) so that infrastructure like the LRU cache
and the metrics registry can be shared without import cycles.
"""

from .lru import LRUCache
from .metrics import Counter, LatencyHistogram, MetricsRegistry

__all__ = ["LRUCache", "Counter", "LatencyHistogram", "MetricsRegistry"]
