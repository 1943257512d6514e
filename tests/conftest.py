import os

# As the snt-lab program does before numpy loads: the engine calls no BLAS
# routine, and without OpenBLAS's idle thread pool the test process has one
# thread, so an in-process simulate may fork its second process.
os.environ["OPENBLAS_NUM_THREADS"] = "1"
