"""Exception types shared across the package."""


class HdpmfError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(HdpmfError):
    """Invalid experiment configuration (unknown key, bad type, bad value)."""

    def __init__(self, key: str, message: str):
        self.key = key
        super().__init__(f"config key '{key}': {message}")


class ParseError(HdpmfError):
    """Malformed dataset file."""

    def __init__(self, path: str, line_no: int, message: str):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class EmptySplitError(HdpmfError):
    """The train/test split holds out no ratings, so nothing can be scored."""


class DivergedRunError(HdpmfError):
    """Training produced non-finite values."""

    def __init__(self, epoch: int):
        self.epoch = epoch
        super().__init__(f"training diverged at epoch {epoch} (non-finite factors)")


class ProtocolError(HdpmfError):
    """A simulated device or the recommender broke the message protocol."""
