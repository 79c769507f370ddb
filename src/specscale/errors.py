"""Exception types shared across the toolkit."""

import numpy as np


class SpecScaleError(Exception):
    """Base class for all toolkit errors."""


class DegenerateDegreeError(SpecScaleError):
    """A degree matrix has a non-positive diagonal entry."""


class InsufficientSpectrumError(SpecScaleError):
    """Fewer eigenvalues survive deflation than were requested."""


class DegeneratePencilError(SpecScaleError):
    """The right-hand pencil matrix is zero; no finite eigenvalue exists."""


class NoEigenpairError(SpecScaleError):
    """The pencil has no finite eigenpair."""


class InsufficientSamplesError(SpecScaleError):
    """An operation needs at least two samples."""


class IsolatedSampleError(SpecScaleError):
    """A similarity graph vertex ended up with zero degree.

    Attributes
    ----------
    samples : numpy.ndarray
        Indices of every zero-degree sample, most isolated first. The message
        names only the first of them and the count, so its length does not grow
        with the number of samples.
    """

    def __init__(self, message, samples=()):
        super().__init__(message)
        self.samples = np.asarray(samples, dtype=int)


class NumericalOverflowError(SpecScaleError):
    """A kernel evaluation produced non-finite weights."""


class DegenerateSupervisionError(SpecScaleError):
    """Training labels contain only a single class."""


class InternalConsistencyError(SpecScaleError):
    """An internal invariant failed; indicates a bug, never bad input."""


class NoScalingError(SpecScaleError):
    """No usable scaling factors could be extracted from the pencil."""


class NonNormalizableError(SpecScaleError):
    """Every candidate eigenvector has a vanishing last component."""


class DegenerateVectorError(SpecScaleError):
    """A quadratic form denominator is zero."""


class ZeroVarianceError(SpecScaleError):
    """A feature is constant and cannot be standardized."""


class MatrixParseError(SpecScaleError):
    """A delimited text file could not be parsed as a data matrix."""


class DegenerateEntropyWarning(UserWarning):
    """A labeling has zero entropy; mutual information is reported as 0."""
