"""Exception hierarchy for the urbanmas pipeline.

Every operational failure raised by this package derives from
:class:`UrbanMasError`, so callers can catch one type at pipeline
boundaries. Invariant violations on domain types raise plain
``ValueError`` at construction time instead.
"""


class UrbanMasError(Exception):
    """Base class for all operational errors raised by urbanmas."""


class ConfigError(UrbanMasError):
    """Invalid or inconsistent run configuration."""


# --- chat backend ---------------------------------------------------------

class AuthenticationError(UrbanMasError):
    """The live endpoint rejected our credentials."""


class TransportExhaustedError(UrbanMasError):
    """All retry attempts against the live endpoint failed."""


class ReplayMissError(UrbanMasError):
    """The cassette holds no entry for the request fingerprint."""


class CassetteFormatError(UrbanMasError):
    """A cassette cannot be read, or a line is not a valid fingerprint -> response entry."""


# --- geo ingestion --------------------------------------------------------

class UpstreamUnavailableError(UrbanMasError):
    """A geo upstream (the geocoder or the POI endpoint) could not be reached."""


class OfflineMissError(UrbanMasError):
    """Offline mode requested data that is not in the cache."""


class EnrichmentError(UrbanMasError):
    """Every upstream failed while enriching a location."""


# --- factor guidance ------------------------------------------------------

class GuidanceError(UrbanMasError):
    """Base class for predictive-factor guidance failures."""


class DegenerateReportError(GuidanceError):
    """The research step kept producing reports below the minimum length."""


class InvalidFactorSetError(GuidanceError):
    """The summary step never produced a valid six-factor set."""


# --- extraction / reliability --------------------------------------------

class ExtractionError(UrbanMasError):
    """Base class for urban-information extraction failures."""


class ExtractionParseError(ExtractionError):
    """A variant response stayed unparseable after the re-ask."""


class FieldKeyMismatchError(UrbanMasError):
    """Two records being compared do not share the same field keys."""


class RefinerError(ExtractionError):
    """The refiner call for a named field failed."""


# --- inference ------------------------------------------------------------

class SchemaFailureError(UrbanMasError):
    """The model never produced the required output schema."""


class MissingRecordsError(UrbanMasError):
    """Inference was invoked without the four dimension/level records."""


# --- evaluation -----------------------------------------------------------

class EvaluationError(UrbanMasError):
    """Base class for evaluation failures."""


class AlignmentError(EvaluationError):
    """Prediction and ground-truth ids do not line up."""
