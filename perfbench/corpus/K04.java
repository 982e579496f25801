class K04 {
    void f(int[] xs) {
        int i = 0;
        while (i < 10) {
            i = i + 1;
            if (i == 5) {
                continue;
            }
        }
        for (int j = 0; j < 3; j = j + 1) {
            if (j == 2) {
                break;
            }
        }
        for (int x : xs) {
            i = i + x;
        }
        do {
            i = i - 1;
        } while (i > 0);
    }
}
