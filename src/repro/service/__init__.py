"""The query-serving layer: sharding, ingestion, caching, durability."""

from ..persistence import CheckpointPolicy
from .cache import PlanCache, ResultCache
from .locks import ReadWriteLock
from .service import IngestAck, KokoService
from .stats import ServiceStats

__all__ = [
    "CheckpointPolicy",
    "IngestAck",
    "KokoService",
    "PlanCache",
    "ReadWriteLock",
    "ResultCache",
    "ServiceStats",
]
