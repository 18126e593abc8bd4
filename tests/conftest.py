"""Helpers shared by the test modules."""


def walk_layers(layers):
    """Every layer of a graph, depth first: each layer, then the layers of
    its branches (add layers only) in order."""
    for layer in layers:
        yield layer
        for branch in layer.children:
            yield from walk_layers(branch)
