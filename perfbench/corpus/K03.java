class K03 {
    int[] one = new int[3];
    int[][] two = new int[2][2];

    void f() {
        int[] copy = {1, 2, 3};
        one[0] = copy[1];
    }
}
