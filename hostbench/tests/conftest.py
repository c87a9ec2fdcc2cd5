import os
import sys

HOSTBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, HOSTBENCH)
sys.path.insert(0, os.path.join(os.path.dirname(HOSTBENCH), "src"))
