"""Runtime substrate: tensor containers, permutation structures, executor."""

from .morton import demorton2, demorton3, morton, morton2, morton3, morton_nd
from .ordered_list import LexBucketPermutation, OrderedList, OrderedSet
from .container import CONTAINERS, Layout, LevelContainer, container_class
from .matrices import (
    BCSCMatrix,
    BCSRMatrix,
    COOMatrix,
    CSCMatrix,
    CSRMatrix,
    DCSRMatrix,
    DIAMatrix,
    ELLMatrix,
    MortonCOOMatrix,
    dense_equal,
)
from .tensors3d import COOTensor3D, MortonCOOTensor3D
from .hicoo import HiCOOTensor
from .csf import CSFTensor
from .executor import base_namespace, compile_inspector

__all__ = [
    "BCSCMatrix",
    "BCSRMatrix",
    "CONTAINERS",
    "COOMatrix",
    "COOTensor3D",
    "CSFTensor",
    "CSCMatrix",
    "CSRMatrix",
    "DCSRMatrix",
    "DIAMatrix",
    "ELLMatrix",
    "HiCOOTensor",
    "Layout",
    "LevelContainer",
    "LexBucketPermutation",
    "MortonCOOMatrix",
    "MortonCOOTensor3D",
    "OrderedList",
    "OrderedSet",
    "base_namespace",
    "compile_inspector",
    "container_class",
    "demorton2",
    "demorton3",
    "dense_equal",
    "morton",
    "morton2",
    "morton3",
    "morton_nd",
]
