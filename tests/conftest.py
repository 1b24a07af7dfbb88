import random

import pytest

from ettrace.builder import TraceBuilder
from ettrace.schema import (
    Attribute,
    AttributeKind,
    CommType,
    ETNode,
    NodeType,
    Trace,
    make_attributes,
)

# Attribute payloads that exercise every kind.
KIND_SAMPLES = [
    (AttributeKind.FLOAT, 1.5),
    (AttributeKind.INT, 7),
    (AttributeKind.STRING, "x"),
    (AttributeKind.FLOATS, (1.0, 2.5)),
    (AttributeKind.INTS, (1, 2, 3)),
    (AttributeKind.STRINGS, ("a", "b")),
]


def random_dag_parents(rng: random.Random, n_nodes: int, edge_prob: float = 0.4):
    """Random DAG as id -> parent set; ids 1..n, edges only from lower ids."""
    ids = list(range(1, n_nodes + 1))
    return {
        i: {j for j in ids if j < i and rng.random() < edge_prob} for i in ids
    }


def invalid_chain_trace(length: int) -> Trace:
    """COMP "head", then ``length`` chained INVALID nodes, then COMP "tail"; runtime 5 each."""
    b = TraceBuilder(0)
    prev = b.comp("head", 5)
    for i in range(length):
        prev = b.add_node(NodeType.INVALID, f"ghost{i}", parents=[prev])
    b.comp("tail", 5, parents=[prev])
    return b.build()


def random_valid_trace(rng: random.Random, npu_id: int = 0, max_nodes: int = 200) -> Trace:
    """A random trace that satisfies every validation rule.

    Mixes all node types, optional/required attributes, and odd names so the
    codecs get exercised beyond the generator presets.
    """
    n = rng.randint(0, max_nodes)
    parents_map = random_dag_parents(rng, n, edge_prob=0.15)
    nodes = []
    for i in range(1, n + 1):
        roll = rng.random()
        attrs: dict = {}
        if roll < 0.35:
            node_type = NodeType.COMP
            attrs["runtime"] = rng.randint(0, 10**9)
            if rng.random() < 0.3:
                attrs["num_ops"] = rng.randint(1, 10**12)
        elif roll < 0.5:
            node_type = rng.choice([NodeType.MEM_LOAD, NodeType.MEM_STORE])
            attrs["tensor_size"] = rng.randint(0, 10**9)
        elif roll < 0.65:
            node_type = NodeType.COMM_COLL
            attrs["comm_type"] = rng.choice(
                [CommType.ALL_REDUCE, CommType.ALL_GATHER, CommType.REDUCE_SCATTER, CommType.ALL_TO_ALL]
            ).value
            attrs["comm_size"] = rng.randint(0, 2**40)
            attrs["comm_group"] = rng.choice(["dp", "mp", "g0", "ring-1"])
        elif roll < 0.75:
            node_type = rng.choice([NodeType.COMM_SEND, NodeType.COMM_RECV])
            attrs["comm_type"] = (
                CommType.SEND if node_type is NodeType.COMM_SEND else CommType.RECV
            ).value
            attrs["comm_size"] = rng.randint(0, 2**40)
            attrs["comm_peer"] = rng.randint(0, 63)
            if rng.random() < 0.5:
                attrs["comm_tag"] = rng.randint(0, 1000)
        else:
            node_type = NodeType.INVALID
        if rng.random() < 0.2:
            attrs["note"] = rng.choice(["", "comma, name", "uni☃code", "x" * 50])
        if rng.random() < 0.1:
            attrs["shape"] = tuple(rng.randint(1, 512) for _ in range(rng.randint(1, 4)))
        name = rng.choice(["op", "op, with comma", "layer_3/fwd", "étape", "n" * 30])
        nodes.append(
            ETNode(
                id=i,
                name=f"{name}_{i}",
                type=node_type,
                parents=tuple(sorted(parents_map[i])),
                attributes=make_attributes(attrs),
            )
        )
    return Trace(npu_id=npu_id, nodes=tuple(nodes))


@pytest.fixture
def rng() -> random.Random:
    return random.Random(0xE77)
