"""daptlab: desk-scale domain-adaptive pretraining lab.

A small, dependency-light stack for studying continued masked-language-model
pretraining on a narrow domain: corpus curation, WordPiece tokenization, a
mini bidirectional encoder with taped reverse-mode autodiff, Adam with
decoupled weight decay, intrinsic and extrinsic evaluation, and a CLI that
chains the stages into reproducible runs.
"""

__version__ = "0.1.0"
